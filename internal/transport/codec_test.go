package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// A payload of another protocol version is an explicit version error that
// carries the ID it arrived with, for requests and responses alike — never
// a decode failure, whatever follows the two leading fields.
func TestVersionMismatchIsExplicit(t *testing.T) {
	for _, m := range []message{
		&Request{Version: Version + 1, ID: 41, Op: OpPing},
		&Response{Version: 1, ID: 41, OK: true},
	} {
		frame := encode(t, m)
		frame = append(frame, "a later version's fields"...)
		binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
		var ve *versionError
		for _, into := range []message{new(Request), new(Response)} {
			err := readFrame(bytes.NewReader(frame), into)
			if !errors.As(err, &ve) || ve.id != 41 || !strings.Contains(err.Error(), "unsupported (want 2)") {
				t.Fatalf("%T read as %T: %v, want a version error for id 41", m, into, err)
			}
		}
	}
}

// hostileFrames are payloads a few bytes long that claim a huge list or
// string, break a varint, or carry bytes past their end, by name; response
// names start with "response". testdata/fuzz/FuzzReadFrame holds the same
// frames, one file each, for the fuzzer to start from.
func hostileFrames() map[string][]byte {
	huge := binary.AppendUvarint(nil, 1<<22)       // small enough that allocating it would succeed, and show
	req := []byte{Version, 1, byte(OpDiscover), 0} // as far as "has info: no"
	resp := []byte{Version, 1, 1, 0, 0, 0, 0}      // as far as a result's ok, error and cost
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	payloads := map[string][]byte{
		"hostile count subs":             cat(req, huge),
		"hostile length requester":       cat(req, []byte{0}, huge),
		"hostile count infos":            cat(req, []byte{0, 0, 0}, huge),
		"hostile count queries":          cat(req, []byte{0, 0, 0, 0}, huge),
		"response hostile count matches": cat(resp, huge),
		"response hostile count owners":  cat(resp, []byte{0}, huge),
		"response hostile count results": cat(resp, []byte{0, 0}, huge),
		"count fits items do not":        cat(req, []byte{0, 0, 0, 3, 4, 'c', 'p', 'u'}, make([]byte, 30)),
		"truncated varint id":            {Version, 0x80},
		"truncated varint count":         cat(req, []byte{0xff}),
		"overlong varint id":             cat([]byte{Version}, bytes.Repeat([]byte{0x80}, 10), []byte{1}),
		"trailing bytes":                 cat(req, make([]byte, 7)),
		"empty payload":                  {},
	}
	for name, payload := range payloads {
		payloads[name] = append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
	}
	return payloads
}

// Counts and lengths are checked against the bytes left in the frame before
// anything is allocated, so a few hostile bytes cannot claim a huge list.
func TestHostileFramesRejected(t *testing.T) {
	for name, frame := range hostileFrames() {
		into := message(new(Request))
		if strings.HasPrefix(name, "response") {
			into = new(Response)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := readFrame(bytes.NewReader(frame), into)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "decode") {
			t.Errorf("%s: hostile frame accepted: %v", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
			t.Errorf("%s: %d bytes allocated decoding a %d-byte frame", name, got, len(frame))
		}
	}
}

// The encode path allocates nothing in steady state, and a round trip of
// the benchmark's discover request at most half of the JSON codec's 15:
// what is left is the decoded request itself, its strings and its slice.
func TestCodecAllocations(t *testing.T) {
	req := benchDiscoverRequest()
	var buf bytes.Buffer
	buf.Grow(1 << 10)
	if n := testing.AllocsPerRun(200, func() {
		buf.Reset()
		writeFrame(&buf, req)
	}); n != 0 {
		t.Errorf("encode allocates %v times per frame, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		buf.Reset()
		writeFrame(&buf, req)
		var out Request
		readFrame(&buf, &out)
	}); n > 7 {
		t.Errorf("round trip allocates %v times, want at most 7", n)
	}
	// Matches that repeat their attribute share one string.
	resp := &Response{Version: Version, ID: 1, OK: true, Matches: fuzzInfos(2, "cpu", "o", 1)}
	var out Response
	if err := readFrame(bytes.NewReader(encode(t, resp)), &out); err != nil {
		t.Fatal(err)
	}
	if a, b := out.Matches[0].Attr, out.Matches[1].Attr; a != "cpu" || unsafe.StringData(a) != unsafe.StringData(b) {
		t.Fatalf("attrs %q %q, want one shared \"cpu\"", a, b)
	}
}
