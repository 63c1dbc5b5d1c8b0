package discovery

import (
	"lorm/internal/resource"
)

// RunSubs resolves a multi-attribute query by executing its sub-queries
// concurrently — the paper's "multi-attribute query is composed of a set
// of sub-queries on each attribute, which are processed in parallel" — and
// merging the per-attribute matches. The first error aborts the query.
//
// Communication cost is not accumulated here: the systems thread one
// routing.Op through every sub-query (the Op is safe for concurrent use)
// and set Result.Cost from it after RunSubs returns, so cost derivation
// stays in the routing fabric.
//
// fn must be safe for concurrent use; every System implements it over
// lock-free snapshot lookups.
func RunSubs(q resource.Query, fn func(resource.SubQuery) ([]resource.Info, error)) (*Result, error) {
	type subResult struct {
		attr    string
		matches []resource.Info
		err     error
	}
	ch := make(chan subResult, len(q.Subs))
	run := func(sub resource.SubQuery) {
		matches, err := fn(sub)
		ch <- subResult{attr: sub.Attr, matches: matches, err: err}
	}
	// The last sub-query runs here: the caller would only wait, and a
	// one-attribute query spawns nothing.
	if last := len(q.Subs) - 1; last >= 0 {
		for _, sub := range q.Subs[:last] {
			go run(sub)
		}
		run(q.Subs[last])
	}
	res := &Result{PerAttr: make(map[string][]resource.Info, len(q.Subs))}
	var firstErr error
	for range q.Subs {
		sr := <-ch
		if sr.err != nil {
			if firstErr == nil {
				firstErr = sr.err
			}
			continue
		}
		res.PerAttr[sr.attr] = sr.matches
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return Finish(res), nil
}
