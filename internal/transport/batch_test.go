package transport

import (
	"fmt"
	"math"
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
		{Attr: "cpu", Value: math.NaN(), Owner: "owner-nan"}, // the binary wire carries it; validation must refuse it
	})
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].OK || !results[2].OK {
		t.Fatalf("valid items failed: %+v", results)
	}
	for _, bad := range []int{1, 3} {
		if results[bad].OK || results[bad].Error == "" {
			t.Fatalf("invalid item %d did not carry its own error: %+v", bad, results[bad])
		}
	}

	qres, err := cli.DiscoverBatch([]BatchQuery{
		{Subs: []resource.SubQuery{{Attr: "cpu", Low: 100, High: 3200}}, Requester: "req-a"},
		{Subs: nil, Requester: "req-empty"}, // no sub-queries: per-item error
		{Subs: []resource.SubQuery{{Attr: "cpu", Low: 100, High: math.Inf(1)}}, Requester: "req-inf"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !qres[0].OK {
		t.Fatalf("valid query failed: %s", qres[0].Error)
	}
	for _, bad := range []int{1, 2} {
		if qres[bad].OK || qres[bad].Error == "" {
			t.Fatalf("invalid query %d did not carry its own error: %+v", bad, qres[bad])
		}
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
