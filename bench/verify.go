package main

import (
	"fmt"
	"slices"

	"lorm/internal/discovery"
	"lorm/internal/resource"
)

// oracle is the ground truth answers are checked against: one
// discovery.Oracle per attribute, each holding only that attribute's
// announcements. discovery.Oracle scans its whole list for every
// sub-query, so one flat oracle costs 0.4 ms per sub-query at paper scale;
// sharding by attribute makes checking every op affordable without
// changing what is compared — each sub-query is still answered by a
// discovery.Oracle and joined by resource.JoinOwners.
type oracle struct {
	schema *resource.Schema
	shards map[string]*discovery.Oracle
}

func newOracle(schema *resource.Schema, infos []resource.Info) *oracle {
	o := &oracle{schema: schema, shards: make(map[string]*discovery.Oracle, schema.Len())}
	for _, a := range schema.Attributes() {
		o.shards[a.Name] = discovery.NewOracle(schema)
	}
	for _, in := range infos {
		o.add(in)
	}
	return o
}

func (o *oracle) add(in resource.Info) {
	o.shards[in.Attr].Register(in) // the oracle's Register cannot fail
}

// owners is the exact answer to q over everything added so far.
func (o *oracle) owners(q resource.Query) ([]string, error) {
	perAttr := make(map[string][]resource.Info, len(q.Subs))
	for _, sub := range q.Subs {
		shard, ok := o.shards[sub.Attr]
		if !ok {
			return nil, fmt.Errorf("query on unknown attribute %q", sub.Attr)
		}
		res, err := shard.Discover(resource.Query{Subs: []resource.SubQuery{sub}})
		if err != nil {
			return nil, err
		}
		perAttr[sub.Attr] = res.PerAttr[sub.Attr]
	}
	return resource.JoinOwners(perAttr), nil
}

// answer is what one discover returned, kept for checking off the clock.
type answer struct {
	owners  []string
	matches []resource.Info
}

// checkExact reports a mismatch between a read-only discover's owners and
// the oracle's.
func checkExact(o *oracle, q resource.Query, got answer) error {
	want, err := o.owners(q)
	if err != nil {
		return err
	}
	if !slices.Equal(got.owners, want) {
		return fmt.Errorf("%v: %d owners, oracle has %d", q, len(got.owners), len(want))
	}
	return nil
}

// checkDuringMix checks a discover that ran beside announces, whose exact
// answer depends on which announces it raced. Two things hold regardless:
// every returned match lies within its sub-query's bounds, and — since
// announces only add — the owners include everyone the preload alone puts
// in the answer.
func checkDuringMix(preloadOnly *oracle, q resource.Query, got answer) error {
	bounds := make(map[string]resource.SubQuery, len(q.Subs))
	for _, sub := range q.Subs {
		bounds[sub.Attr] = sub
	}
	for _, m := range got.matches {
		sub, ok := bounds[m.Attr]
		if !ok || !sub.Matches(m.Value) {
			return fmt.Errorf("%v: match %v outside the query", q, m)
		}
	}
	floor, err := preloadOnly.owners(q)
	if err != nil {
		return err
	}
	have := make(map[string]bool, len(got.owners))
	for _, o := range got.owners {
		have[o] = true
	}
	for _, o := range floor {
		if !have[o] {
			return fmt.Errorf("%v: preloaded owner %s missing", q, o)
		}
	}
	return nil
}
