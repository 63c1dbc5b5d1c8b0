package main

import (
	"fmt"
	"slices"
	"time"

	"lorm/internal/core"
	"lorm/internal/cycloid"
	"lorm/internal/directory"
	"lorm/internal/discovery"
	"lorm/internal/emulate"
	"lorm/internal/metrics"
	"lorm/internal/resource"
	"lorm/internal/routing"
)

// ladder replays one op list, one caller, through four substitutions that
// share each op's identifier — the real gateway, a gateway replaying
// recorded answers, the system called in process, and the primitives the
// system is built from — so every request's time can be split by layer from
// outside the program. Whatever the workload, the ladder's gateway fronts
// LORM: it is the only system served over TCP.
type ladder struct {
	sc  *scale
	w   workloadSpec // the workload with its transport forced to TCP to LORM
	rec *recorder
	orc *oracle

	ops    []op
	frames []frame

	// Per op, filled rung by rung.
	answers  []answer            // what the real gateway returned
	results  []*discovery.Result // what the system returned in process (discovers)
	costs    []discovery.Cost    // the in-process call's cost
	coreSpan []int               // the core-layer span primitives hang under
	inproc   []time.Duration     // the served system's in-process call
	rootSpan []int               // per frame: the rtt_full span
	full     []time.Duration     // per frame: real gateway round trip
	replay   []time.Duration     // per frame: replay gateway round trip
	deltas   map[string]float64  // counter deltas over the real-gateway rung
	lorm     *core.System        // the in-process rung's deployment, kept for the primitives
	failures int
	firstErr error
}

func (l *ladder) fail(err error) {
	l.failures++
	if l.firstErr == nil {
		l.firstErr = err
	}
}

// newLadder takes LORM's share of the first tracedOps ops the plan sends.
func newLadder(sc *scale, w *workloadSpec, pl *plan, rec *recorder) *ladder {
	l := &ladder{sc: sc, w: *w, rec: rec, orc: newOracle(sc.schema, sc.preload)}
	l.w.inProc, l.w.allSystems = false, false
	for _, f := range pl.first() {
		if len(l.ops) >= w.tracedOps {
			break
		}
		first := len(l.ops)
		for i := f.first; i < f.first+f.n; i++ {
			if pl.ops[i].sys == 0 {
				l.ops = append(l.ops, pl.ops[i])
			}
		}
		if n := len(l.ops) - first; n > 0 {
			l.frames = append(l.frames, frame{first: first, n: n})
		}
	}
	n := len(l.ops)
	l.results = make([]*discovery.Result, n)
	l.costs = make([]discovery.Cost, n)
	l.coreSpan = make([]int, n)
	l.inproc = make([]time.Duration, n)
	l.rootSpan = make([]int, len(l.frames))
	l.full = make([]time.Duration, len(l.frames))
	l.replay = make([]time.Duration, len(l.frames))
	return l
}

// counterTotals reads every process-wide counter family's total.
func counterTotals() map[string]float64 {
	out := map[string]float64{}
	for _, f := range metrics.Default().Snapshot().Families {
		out[f.Name] = f.Total()
	}
	return out
}

// timeFrames sends the frames one at a time through r, stores each round
// trip in out and files a span per frame under the frame's root span (no
// parent while the roots themselves are being recorded). It returns the
// spans' IDs.
func (l *ladder) timeFrames(r *runner, name string, out []time.Duration) []int {
	ids := make([]int, len(l.frames))
	for fi, f := range l.frames {
		start := time.Now()
		r.issue(f)
		end := time.Now()
		out[fi] = end.Sub(start)
		ids[fi] = l.rec.add(f.first, l.rootSpan[fi], "transport", name, start, end, f.n)
	}
	if err := r.firstErr.Load(); err != nil {
		l.failures += int(r.failures.Load())
		if l.firstErr == nil {
			l.firstErr = fmt.Errorf("%s: %w", name, *err)
		}
	}
	return ids
}

// realGateway is rung 1: a fresh deployment behind a loopback gateway.
func (l *ladder) realGateway() error {
	d, err := setUp(l.sc, &l.w)
	if err != nil {
		return err
	}
	r := newRunner(&l.w, d, l.ops, 1)
	before := counterTotals()
	l.rootSpan = l.timeFrames(r, "rtt_full", l.full)
	// The gateway counts a response's bytes after writing them, which can
	// be after the client has read them: close it before reading counters.
	d.close()
	after := counterTotals()
	l.deltas = map[string]float64{}
	for name, v := range after {
		l.deltas[name] = v - before[name]
	}
	l.answers = r.kept
	return nil
}

// inProcess is rung 3: the same ops, in order, straight into a fresh
// system. Its results are what the replay gateway will serve. The timed
// loop does nothing but call and record; checking comes after, so the calls
// run as warm as the gateway's do.
func (l *ladder) inProcess() error {
	dep, err := buildSystems(l.sc, false)
	if err != nil {
		return err
	}
	l.lorm = dep.LORM
	served := emulate.WithHopLatency(l.lorm, l.w.hop)
	layer := "core"
	if l.w.hop > 0 {
		layer = "emulate"
	}
	for fi, f := range l.frames {
		for i := f.first; i < f.first+f.n; i++ {
			o := &l.ops[i]
			var err error
			start := time.Now()
			if o.isDiscover() {
				if l.results[i], err = served.Discover(o.query); err == nil {
					l.costs[i] = l.results[i].Cost
				}
			} else {
				l.costs[i], err = served.Register(o.info)
			}
			end := time.Now()
			if err != nil {
				l.fail(fmt.Errorf("in-process op %d: %w", i, err))
				continue
			}
			l.inproc[i] = end.Sub(start)
			l.coreSpan[i] = l.rec.add(i, l.rootSpan[fi], layer, "inproc", start, end, 0)
			if l.w.hop > 0 && o.isDiscover() {
				// The wrapper's share is the call through it less this one.
				start := time.Now()
				_, err := l.lorm.Discover(o.query)
				end := time.Now()
				if err != nil {
					l.fail(fmt.Errorf("in-process op %d: %w", i, err))
					continue
				}
				l.coreSpan[i] = l.rec.add(i, l.coreSpan[i], "core", "system", start, end, 0)
			}
		}
	}
	l.check()
	return nil
}

// check compares every in-process answer with the oracle — exactly,
// announces included, because with one caller the order of effects is the
// order of the list — and with what the real gateway returned.
func (l *ladder) check() {
	for i := range l.ops {
		o, res := &l.ops[i], l.results[i]
		switch {
		case !o.isDiscover():
			l.orc.add(o.info)
		case res == nil: // already counted as failed
		default:
			if err := checkExact(l.orc, o.query, answer{owners: res.Owners}); err != nil {
				l.fail(fmt.Errorf("in-process op %d: %w", i, err))
			}
			if got := l.answers[i]; !slices.Equal(got.owners, res.Owners) {
				l.fail(fmt.Errorf("op %d: gateway returned %d owners, in-process call %d", i, len(got.owners), len(res.Owners)))
			}
		}
	}
}

// replayGateway is rung 2: the recorded answers behind a real gateway.
// It returns the replay gateway's closed-loop capacity and its allocations
// per op (driver's and gateway's together: they share the process).
func (l *ladder) replayGateway() (capacity, allocsPerOp float64, err error) {
	rs := newReplaySystem(l.sc.schema)
	for i := range l.ops {
		if o := &l.ops[i]; o.isDiscover() {
			rs.discovers[o.query.Requester] = l.results[i]
		} else {
			rs.registers[o.info.Owner] = l.costs[i]
		}
	}
	timed := &deployment{}
	if err := timed.serve(rs); err != nil {
		timed.close()
		return 0, 0, err
	}
	written, m0 := counterTotals()["transport_bytes_written_total"], mallocs()
	l.timeFrames(newRunner(&l.w, timed, l.ops, 1), "rtt_replay", l.replay)
	allocsPerOp = float64(mallocs()-m0) / float64(len(l.ops))
	timed.close()
	written = counterTotals()["transport_bytes_written_total"] - written
	if want := l.deltas["transport_bytes_written_total"]; written != want {
		l.fail(fmt.Errorf("replay gateway wrote %.0f response bytes, real gateway %.0f", written, want))
	}

	loaded := &deployment{}
	defer loaded.close()
	if err := loaded.serve(rs); err != nil {
		return 0, 0, err
	}
	closed := newRunner(&l.w, loaded, l.ops, 1).closed(l.frames)
	return float64(len(l.ops)) / closed.wall.Seconds(), allocsPerOp, nil
}

// primitives is rung 4: for each op, the calls LORM itself makes into the
// layers below it, repeated as many times as the op's recorded cost says:
// one overlay lookup per sub-query, one NextNode per range-walk step, one
// MatchAppend per visited directory, one fabric op carrying the hops and
// visits. What is left of the system's span is its own glue: validation,
// hashing, the sub-query fan-out, the join.
func (l *ladder) primitives() {
	ov := l.lorm.Overlay()
	fabric := routing.NewFabric("lorm")
	var (
		scratch directory.Store
		buf     []resource.Info
		nodes   []*cycloid.Node
	)
	for i := range l.ops {
		o, parent, cost := &l.ops[i], l.coreSpan[i], l.costs[i]
		if parent == 0 {
			continue // the in-process call failed
		}
		if !o.isDiscover() {
			from, err1 := ov.NodeNear(o.info.Owner)
			key, err2 := l.lorm.RescID(o.info.Attr, o.info.Value)
			if err1 != nil || err2 != nil {
				continue
			}
			start := time.Now()
			ov.Lookup(from, key)
			mid := time.Now()
			scratch.Add(directory.Entry{Key: ov.Pos(key), Info: o.info})
			end := time.Now()
			l.rec.add(i, parent, "cycloid", "lookup", start, mid, 0)
			l.rec.add(i, parent, "directory", "add", mid, end, 0)
			l.timedFabricOp(fabric, i, parent, routing.OpRegister, cost)
			continue
		}
		from, err := ov.NodeNear(o.query.Requester)
		if err != nil {
			continue
		}
		subs := o.query.Subs
		start := time.Now()
		cur := from
		for _, sub := range subs {
			key, _ := l.lorm.RescID(sub.Attr, sub.Low)
			if route, err := ov.Lookup(from, key); err == nil {
				cur = route.Root
			}
		}
		end := time.Now()
		l.rec.add(i, parent, "cycloid", "lookup", start, end, len(subs))

		nodes = append(nodes[:0], cur)
		if walk := cost.Visited - len(subs); walk > 0 {
			start = time.Now()
			for k := 0; k < walk; k++ {
				cur, _ = ov.NextNode(cur)
				nodes = append(nodes, cur)
			}
			end = time.Now()
			l.rec.add(i, parent, "cycloid", "next_node", start, end, walk)
		}
		last := subs[len(subs)-1]
		start = time.Now()
		for k := 0; k < cost.Visited; k++ {
			buf = nodes[k%len(nodes)].Dir.MatchAppend(buf[:0], last.Attr, last.Low, last.High)
		}
		end = time.Now()
		l.rec.add(i, parent, "directory", "match", start, end, cost.Visited)
		l.timedFabricOp(fabric, i, parent, routing.OpDiscover, cost)
	}
}

// timedFabricOp files the fabric op an operation of that cost amounts to.
func (l *ladder) timedFabricOp(f *routing.Fabric, i, parent int, kind routing.Kind, cost discovery.Cost) {
	start := time.Now()
	fabricOp(f, kind, cost.Hops, cost.Visited)
	l.rec.add(i, parent, "routing", "fabric_op", start, time.Now(), 0)
}

// perFrame sums a per-op series over each frame.
func (l *ladder) perFrame(perOp []time.Duration) []float64 {
	out := make([]float64, len(l.frames))
	for fi, f := range l.frames {
		for i := f.first; i < f.first+f.n; i++ {
			out[fi] += us(perOp[i])
		}
	}
	return out
}

func usOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}
