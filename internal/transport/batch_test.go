package transport

import (
	"fmt"
	"net"
	"testing"

	"lorm/internal/discovery"
	"lorm/internal/resource"
)

// A register batch and a discover batch must round-trip end-to-end, with
// results in item order and the batch ledger (ops accepted vs items
// dispatched) advancing in lockstep.
func TestBatchRoundTrip(t *testing.T) {
	_, cli := startPair(t)

	opsBefore := mBatchRegisterOps.Value() + mBatchDiscoverOps.Value()
	dispatchedBefore := mBatchRegisterDispatched.Value() + mBatchDiscoverDispatched.Value()

	infos := make([]resource.Info, 10)
	for i := range infos {
		infos[i] = resource.Info{Attr: "cpu", Value: 200 + float64(i*300), Owner: fmt.Sprintf("owner-%d", i)}
	}
	results, err := cli.RegisterBatch(infos)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(infos) {
		t.Fatalf("register batch returned %d results for %d items", len(results), len(infos))
	}
	for i, r := range results {
		if !r.OK {
			t.Fatalf("item %d failed: %s", i, r.Error)
		}
		if r.Cost.Messages == 0 {
			t.Fatalf("item %d reports zero routing cost", i)
		}
	}

	queries := []BatchQuery{
		{Subs: []resource.SubQuery{{Attr: "cpu", Low: 100, High: 3200}}, Requester: "req-a"},
		{Subs: []resource.SubQuery{{Attr: "cpu", Low: 200, High: 200}}, Requester: "req-b"},
	}
	qres, err := cli.DiscoverBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(qres) != len(queries) {
		t.Fatalf("discover batch returned %d results for %d items", len(qres), len(queries))
	}
	if !qres[0].OK || len(qres[0].Owners) == 0 {
		t.Fatalf("wide query found no owners: %+v", qres[0])
	}
	if !qres[1].OK {
		t.Fatalf("exact query failed: %s", qres[1].Error)
	}

	opsDelta := mBatchRegisterOps.Value() + mBatchDiscoverOps.Value() - opsBefore
	dispatchedDelta := mBatchRegisterDispatched.Value() + mBatchDiscoverDispatched.Value() - dispatchedBefore
	if want := uint64(len(infos) + len(queries)); opsDelta != want {
		t.Fatalf("batch ops counter moved by %d, want %d", opsDelta, want)
	}
	if opsDelta != dispatchedDelta {
		t.Fatalf("batch ops (%d) != batch dispatched (%d)", opsDelta, dispatchedDelta)
	}
}

// Items fail independently: a malformed item carries its own error while
// its neighbors in the same frame succeed.
func TestBatchItemsFailIndependently(t *testing.T) {
	_, cli := startPair(t)

	results, err := cli.RegisterBatch([]resource.Info{
		{Attr: "cpu", Value: 1000, Owner: "owner-good"},
		{Attr: "no-such-attr", Value: 1, Owner: "owner-bad"},
		{Attr: "mem", Value: 2048, Owner: "owner-good-2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].OK || !results[2].OK {
		t.Fatalf("valid items failed: %+v", results)
	}
	if results[1].OK || results[1].Error == "" {
		t.Fatalf("invalid item did not carry its own error: %+v", results[1])
	}

	qres, err := cli.DiscoverBatch([]BatchQuery{
		{Subs: []resource.SubQuery{{Attr: "cpu", Low: 100, High: 3200}}, Requester: "req-a"},
		{Subs: nil, Requester: "req-empty"}, // no sub-queries: per-item error
	})
	if err != nil {
		t.Fatal(err)
	}
	if !qres[0].OK {
		t.Fatalf("valid query failed: %s", qres[0].Error)
	}
	if qres[1].OK || qres[1].Error == "" {
		t.Fatalf("empty query did not carry its own error: %+v", qres[1])
	}
}

// Empty batches are rejected client-side before touching the wire.
func TestEmptyBatchRejected(t *testing.T) {
	_, cli := startPair(t)
	if _, err := cli.RegisterBatch(nil); err == nil {
		t.Fatal("empty register batch accepted")
	}
	if _, err := cli.DiscoverBatch(nil); err == nil {
		t.Fatal("empty discover batch accepted")
	}
}

// A batch frame carries one trace context applied to every item: the
// traced batch verbs must succeed end-to-end against a gateway whose
// system joins the caller's span per item.
func TestBatchCarriesTraceContext(t *testing.T) {
	_, cli := startPair(t)

	tc := discovery.TraceContext{TraceID: 0xabcd, SpanID: 0x1234, Sampled: true}
	infos := []resource.Info{
		{Attr: "cpu", Value: 500, Owner: "owner-t0"},
		{Attr: "cpu", Value: 900, Owner: "owner-t1"},
		{Attr: "mem", Value: 1024, Owner: "owner-t2"},
	}
	results, err := cli.RegisterBatchTraced(infos, tc)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !r.OK {
			t.Fatalf("traced item %d failed: %s", i, r.Error)
		}
	}
	qres, err := cli.DiscoverBatchTraced([]BatchQuery{
		{Subs: []resource.SubQuery{{Attr: "cpu", Low: 100, High: 3200}}, Requester: "req-t"},
	}, tc)
	if err != nil {
		t.Fatal(err)
	}
	if !qres[0].OK {
		t.Fatalf("traced discover failed: %s", qres[0].Error)
	}
}

// Old servers must tolerate new-client frames and new servers old-client
// frames; the wire stays version 1. A raw old-style request (no batch
// fields) against the new server must work unchanged.
func TestBatchFieldsVersionTolerant(t *testing.T) {
	srv, err := NewServer(testSystem(t), "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A seed-era client frame: version 1, no ID discipline, no batch fields.
	if err := writeFrame(conn, &Request{Version: 1, ID: 7, Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := readFrame(conn, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.ID != 7 {
		t.Fatalf("old-style ping got %+v", resp)
	}
	if len(resp.Results) != 0 {
		t.Fatalf("non-batch response carries batch results: %+v", resp.Results)
	}
}
