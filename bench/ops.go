package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	"lorm/internal/resource"
	"lorm/internal/workload"
)

// op is one request: a discover when query has sub-queries, an announce
// otherwise. The requester (discover) or owner (announce) carries the op's
// index, which keeps every announce's owner unique and lets the replay
// system find the recorded answer.
type op struct {
	query resource.Query
	info  resource.Info
	sys   int // which of the deployment's systems serves it
}

func (o *op) isDiscover() bool { return len(o.query.Subs) > 0 }

// frame is a run of consecutive ops of one kind sent as one request.
type frame struct{ first, n int }

// plan is everything a run sends, fixed by (workload, seed, seconds) before
// the program under test sees any of it.
type plan struct {
	ops                    []op
	open, closed, announce []frame // phases A, B, C
	sha                    string  // SHA-256 over the op list
}

// first is the first phase that has frames: A, or B when callers wait for
// replies and there is no A.
func (pl *plan) first() []frame {
	if len(pl.open) > 0 {
		return pl.open
	}
	return pl.closed
}

func requesterOf(i int) string { return fmt.Sprintf("req%07d", i) }
func ownerOf(i int) string     { return fmt.Sprintf("fresh%07d", i) }

// planner draws ops from one seeded stream.
type planner struct {
	w     *workloadSpec
	gen   *workload.Generator
	rng   *rand.Rand
	nsys  int
	ops   []op
	nextQ int // discover counter, the i handed to w.query
}

// announceOp builds a fresh announce: a random attribute, a Bounded Pareto
// value, an owner no other op uses.
func (p *planner) announceOp() op {
	a := p.gen.Schema().At(p.rng.Intn(p.gen.Schema().Len()))
	return op{info: resource.Info{Attr: a.Name, Value: p.gen.Value(p.rng, a), Owner: ownerOf(len(p.ops))}}
}

// frames appends n ops' worth of frames. Each frame is all-announce with
// probability announceShare, else all-discover. With several systems a
// frame puts each of its requests to every system in turn, so all are asked
// the same things and a frame's latency is the time for all to answer.
func (p *planner) frames(n int, announceShare float64) []frame {
	var out []frame
	for made := 0; made < n; made += p.w.frame * p.nsys {
		announce := p.rng.Float64() < announceShare
		first := len(p.ops)
		for k := 0; k < p.w.frame; k++ {
			var o op
			if announce {
				o = p.announceOp()
			} else {
				o = op{query: p.w.query(p.gen, p.rng, p.nextQ, requesterOf(len(p.ops)))}
				p.nextQ++
			}
			for o.sys = 0; o.sys < p.nsys; o.sys++ {
				p.ops = append(p.ops, o)
			}
		}
		out = append(out, frame{first: first, n: len(p.ops) - first})
	}
	return out
}

// makePlan generates the workload's op list for a seed. seconds scales the
// op counts; the same (workload, seed, seconds) always gives the same plan.
func makePlan(w *workloadSpec, gen *workload.Generator, nsys int, seed int64, seconds float64) *plan {
	p := &planner{w: w, gen: gen, rng: workload.Split(seed, 1), nsys: nsys}
	pl := &plan{}
	// A phase a workload does not have gives its time to one it has.
	open, closed, announce := shareOpen, shareClosed, shareAnnounce
	if w.closedOnly() {
		open, closed = 0, closed+open
	}
	if w.announceShare > 0 {
		open, announce = open+announce, 0
	}
	pl.open = p.frames(int(w.openRate*seconds*open), w.announceShare)
	pl.closed = p.frames(int(w.closedRate*seconds*closed), w.announceShare)
	pl.announce = p.frames(int(w.announceRate*seconds*announce), 1)
	pl.ops = p.ops
	pl.sha = hashOps(pl.ops)
	return pl
}

// hashOps digests the op list so two runs can show they sent the same
// requests.
func hashOps(ops []op) string {
	h := sha256.New()
	for i := range ops {
		o := &ops[i]
		fmt.Fprintf(h, "%d|%s|%v|%v\n", o.sys, o.query.Requester, o.query.Subs, o.info)
	}
	return hex.EncodeToString(h.Sum(nil))
}
