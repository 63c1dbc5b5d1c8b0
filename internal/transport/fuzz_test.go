package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"

	"lorm/internal/discovery"
	"lorm/internal/resource"
)

// fuzzRequest builds a request exercising every field from a few fuzzed
// primitives: n sizes the lists, flags picks the optional fields, and
// consecutive infos repeat their attribute so the back-reference is used.
func fuzzRequest(id uint64, op, n, flags uint8, attr, owner string, value float64) *Request {
	r := &Request{Version: Version, ID: id, Op: Op(op), Requester: owner}
	if flags&1 != 0 {
		r.Info = &resource.Info{Attr: attr, Value: value, Owner: owner}
	}
	if flags&2 != 0 {
		r.Addr = attr
	}
	if flags&4 != 0 {
		r.Trace = &discovery.TraceContext{TraceID: id | 1, SpanID: id >> 3, Sampled: flags&8 != 0}
	}
	r.Infos = fuzzInfos(int(n%7), attr, owner, value)
	for i := 0; i < int(n%4); i++ {
		r.Subs = append(r.Subs, resource.SubQuery{Attr: fmt.Sprint(attr, i), Low: value, High: value + float64(i)})
	}
	for i := 0; i < int(n%3); i++ {
		q := BatchQuery{Requester: fmt.Sprint(owner, i)}
		if k := min(i, len(r.Subs)); k > 0 { // an empty list decodes to nil
			q.Subs = r.Subs[:k]
		}
		r.Queries = append(r.Queries, q)
	}
	return r
}

func fuzzInfos(n int, attr, owner string, value float64) []resource.Info {
	var infos []resource.Info
	for i := 0; i < n; i++ {
		a := attr
		if i/2%2 == 1 {
			a = owner
		}
		infos = append(infos, resource.Info{Attr: a, Value: value + float64(i), Owner: fmt.Sprint(owner, i)})
	}
	return infos
}

// fuzzResponse is fuzzRequest's counterpart: batch results, and stats with
// a full digest.
func fuzzResponse(id uint64, n, flags uint8, attr, owner string, value float64) *Response {
	r := &Response{Version: Version, ID: id, OK: flags&1 != 0}
	r.Cost.Hops, r.Cost.Visited, r.Cost.Messages = int(n), int(n)*2, int(n)*3
	if flags&2 != 0 {
		r.Error = attr
	}
	r.Matches = fuzzInfos(int(n%6), attr, owner, value)
	for i := 0; i < int(n%5); i++ {
		r.Owners = append(r.Owners, fmt.Sprint(owner, i))
		br := BatchResult{OK: i%2 == 0, Matches: fuzzInfos(i, owner, attr, value)}
		br.Cost.Hops = i
		if !br.OK {
			br.Error = owner
			br.Owners = r.Owners[:i]
		}
		r.Results = append(r.Results, br)
	}
	if flags&16 != 0 {
		r.Stats = &Stats{System: attr, Nodes: int(n), Attributes: 2, TotalPieces: int(id % 1000), AvgDir: value, MaxDir: int(n) + 1}
		if flags&32 != 0 {
			m := &MetricsDigest{}
			for i, f := range m.fields() {
				*f = id + uint64(i)
			}
			for i := 0; i < int(n%3); i++ {
				m.Systems = append(m.Systems, SystemMetrics{System: fmt.Sprint(attr, i), Ops: id, P50Hops: value, P99Hops: value * 2})
			}
			r.Stats.Metrics = m
		}
	}
	return r
}

func encode(t testing.TB, m message) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzFrameRoundTrip: every encodable request and response — batch, trace
// and stats included — decodes back to itself, and encodes to the same
// bytes again (which also covers NaN, where DeepEqual cannot).
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint8(OpRegister), uint8(0), uint8(1), "cpu", "10.0.0.1", 1800.0)
	f.Add(uint64(999), uint8(OpDiscoverBatch), uint8(11), uint8(0xff), "mem", "", -3.5)
	f.Add(uint64(math.MaxUint64), uint8(200), uint8(255), uint8(0x35), "", "owner", math.Inf(1))
	f.Add(uint64(7), uint8(OpRegisterBatch), uint8(6), uint8(0x3f), "attr012", "fresh0000042", math.NaN())
	f.Fuzz(func(t *testing.T, id uint64, op, n, flags uint8, attr, owner string, value float64) {
		req, resp := fuzzRequest(id, op, n, flags, attr, owner, value), fuzzResponse(id, n, flags, attr, owner, value)
		reqBytes, respBytes := encode(t, req), encode(t, resp)
		var gotReq Request
		if err := readFrame(bytes.NewReader(reqBytes), &gotReq); err != nil {
			t.Fatalf("decode of freshly encoded request failed: %v", err)
		}
		var gotResp Response
		if err := readFrame(bytes.NewReader(respBytes), &gotResp); err != nil {
			t.Fatalf("decode of freshly encoded response failed: %v", err)
		}
		if !bytes.Equal(encode(t, &gotReq), reqBytes) || !bytes.Equal(encode(t, &gotResp), respBytes) {
			t.Fatalf("re-encoding differs:\n%+v\n%+v", gotReq, gotResp)
		}
		if value == value && !reflect.DeepEqual(&gotReq, req) {
			t.Fatalf("round trip mangled request:\n%+v\n%+v", req, &gotReq)
		}
		if value == value && !reflect.DeepEqual(&gotResp, resp) {
			t.Fatalf("round trip mangled response:\n%+v\n%+v", resp, &gotResp)
		}
	})
}

// FuzzReadFrame feeds arbitrary bytes to the frame decoder, as a request
// and as a response: it must never panic or allocate more than the frame
// could hold, only return errors, and whatever it does accept must encode
// and decode again to the same message. The checked-in corpus
// (testdata/fuzz/FuzzReadFrame) adds hostile counts and truncated varints;
// plain `go test` runs it, `go test -fuzz FuzzReadFrame` explores.
func FuzzReadFrame(f *testing.F) {
	for _, m := range []message{
		&Request{Version: Version, ID: 1, Op: OpPing},
		fuzzRequest(300, uint8(OpDiscoverBatch), 11, 0xff, "cpu", "site-a", 1500),
		fuzzResponse(300, 14, 0xff, "cpu", "site-a", 1500),
	} {
		frame := encode(f, m)
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
	}
	f.Add(binary.BigEndian.AppendUint32(nil, MaxFrame+7))
	f.Add([]byte{})
	f.Add([]byte("not a frame at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, m := range []message{new(Request), new(Response)} {
			if readFrame(bytes.NewReader(data), m) != nil {
				continue
			}
			again := reflect.New(reflect.TypeOf(m).Elem()).Interface().(message)
			first := encode(t, m)
			if err := readFrame(bytes.NewReader(first), again); err != nil {
				t.Fatalf("accepted frame does not survive re-encoding: %v", err)
			}
			if !bytes.Equal(encode(t, again), first) {
				t.Fatalf("accepted frame is not stable under re-encoding: %+v", m)
			}
		}
	})
}
