package main

import (
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"time"

	"lorm/internal/discovery"
	"lorm/internal/resource"
	"lorm/internal/systemtest"
	"lorm/internal/workload"
)

// Shares of -seconds the traced pass's own load phases get: one open-loop
// phase with the recorder on, then two closed-loop phases, recorder on and
// off, whose difference is the tracing overhead.
const (
	shareTracedOpen   = 0.15
	shareTracedClosed = 0.075
)

// emulateOps is how many discovers the emulate rung sleeps through.
const emulateOps = 200

// runTraced is the per-layer pass, separate from the timed pass so that
// recording costs the end-to-end numbers nothing: the ladder over the
// workload's first ops, the micro rungs, then a short loaded phase for the
// driver's own metrics. Every answer is checked, not every 64th.
func runTraced(sc *scale, w *workloadSpec, seed int64, seconds float64, outDir string, log io.Writer) (*result, error) {
	res := &result{Workload: w.name, Pass: "per_layer", Seed: seed, Seconds: seconds,
		Metrics: map[string]value{}, Notes: map[string]any{}}
	rec := newRecorder()
	nsys := 1
	if w.allSystems {
		nsys = len(systemtest.Names())
	}
	pl := makePlan(w, sc.gen, nsys, seed, seconds)
	res.OpListSHA = pl.sha
	countersAtStart := counterTotals()

	// The ladder.
	l := newLadder(sc, w, pl, rec)
	if err := l.realGateway(); err != nil {
		return nil, err
	}
	if err := l.inProcess(); err != nil {
		return nil, err
	}
	capacity, allocs, err := l.replayGateway()
	if err != nil {
		return nil, err
	}
	l.primitives()

	l.report(res, capacity, allocs)
	if err := microRungs(res, sc, l, seed); err != nil {
		return nil, err
	}
	// The driver's own metrics, under the workload's real load.
	if err := tracedLoad(sc, w, pl, rec, res, seconds); err != nil {
		return nil, err
	}
	// Without faults no lookup anywhere in the pass may have detoured.
	now := counterTotals()
	res.set(perLayer, "chord.detours", now["chord_lookup_detours_total"]-countersAtStart["chord_lookup_detours_total"])
	res.set(perLayer, "cycloid.detours", now["cycloid_lookup_detours_total"]-countersAtStart["cycloid_lookup_detours_total"])

	path := filepath.Join(outDir, "trace_"+w.name+".jsonl")
	if err := rec.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "%s: %d spans written to %s\n", w.name, len(rec.spans), path)
	res.Notes["self_time_us_by_layer"] = selfByLayer(rec.spans)

	res.Attempted += 3 * len(l.ops) // three rungs answer every op
	res.Failed += l.failures
	if l.firstErr != nil && res.FirstErr == "" {
		res.FirstErr = l.firstErr.Error()
	}
	return res, nil
}

// report files the ladder's own metrics.
func (l *ladder) report(res *result, capacity, allocs float64) {
	ops := float64(len(l.ops))
	full, replay := median(usOf(l.full)), median(usOf(l.replay))
	inproc := median(l.perFrame(l.inproc))
	res.set(perLayer, "transport.rtt_full_p50_us", full)
	res.set(perLayer, "transport.rtt_replay_p50_us", replay)
	res.set(perLayer, "transport.capacity_replay_ops_s", capacity)
	res.set(perLayer, "transport.req_bytes_per_op", l.deltas["transport_bytes_read_total"]/ops)
	res.set(perLayer, "transport.resp_bytes_per_op", l.deltas["transport_bytes_written_total"]/ops)
	res.set(perLayer, "transport.allocs_per_op", allocs)
	res.set(perLayer, "transport.batch_items_per_frame", ops/float64(len(l.frames)))
	res.set(perLayer, "transport.pipeline_calls", l.deltas["transport_pipeline_calls_total"])
	res.set(perLayer, "transport.pipeline_breaks", l.deltas["transport_pipeline_breaks_total"])
	res.set(perLayer, "transport.retries", l.deltas["transport_client_retries_total"])
	res.set(perLayer, "transport.timeouts", l.deltas["transport_client_timeouts_total"])
	res.set(perLayer, "transport.redials", l.deltas["transport_client_redials_total"])
	res.set(perLayer, "directory.matches_total", l.deltas["directory_matches_total"])
	res.set(perLayer, "directory.adds_total", l.deltas["directory_adds_total"])
	res.set(perLayer, "directory.matches_per_call", ratio(l.deltas["directory_match_entries_total"], l.deltas["directory_matches_total"]))
	res.set(perLayer, "driver.unexplained_frac", 1-(replay+inproc)/full)
	res.Notes["ladder_ops"] = len(l.ops)
	res.Notes["inproc_p50_us"] = inproc
}

// microRungs builds all five systems once and runs every micro rung. Sizes
// and shapes the rungs need from the workload come from its ladder: the
// mean hops and visits of its discovers, one typical result, its queries.
func microRungs(res *result, sc *scale, l *ladder, seed int64) error {
	var (
		discovers             []resource.Query
		hops, visits, queries int
		typical               *discovery.Result
	)
	for i, r := range l.results {
		if r == nil {
			continue
		}
		hops, visits, queries = hops+r.Cost.Hops, visits+r.Cost.Visited, queries+1
		if len(discovers) < emulateOps {
			discovers = append(discovers, l.ops[i].query)
		}
		if typical == nil || (len(typical.PerAttr) != 3 && len(r.PerAttr) == 3) {
			typical = r
		}
	}
	if queries == 0 {
		return fmt.Errorf("%s: the ladder's op list has no discover", l.w.name)
	}
	dep, err := buildSystems(sc, true)
	if err != nil {
		return err
	}
	microDirectory(res, sc.preload, percentileInt(l.lorm.DirectorySizes(), 0.99),
		slices.Max(dep.SWORD.DirectorySizes()), workload.Split(seed, 5))
	microEmulate(res, l.lorm, discovers)
	microRouting(res, (hops+queries/2)/queries, (visits+queries/2)/queries)
	microDiscovery(res, typical)
	microHashing(res, sc.schema, workload.Split(seed, 6))
	microOverlays(res, dep.LORM, dep.SWORD.Ring(), seed)
	p := newProbe(sc.gen, seed)
	microTracing(res, dep.LORM, p)
	for _, sys := range dep.All {
		if err := microSystem(res, sys, p); err != nil {
			l.fail(err)
		}
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedLoad runs the workload's own deployment under an open loop with a
// span recorded per frame, then two closed loops, with and without.
func tracedLoad(sc *scale, w *workloadSpec, pl *plan, rec *recorder, res *result, seconds float64) error {
	d, err := setUp(sc, w)
	if err != nil {
		return err
	}
	defer d.close()
	if err := warmUp(w, d, sc.gen, res.Seed); err != nil {
		return err
	}
	r := newRunner(w, d, pl.ops, 1)
	recorded := func(frames []frame) func(i int) {
		return func(i int) {
			start := time.Now()
			r.issue(frames[i])
			rec.add(frames[i].first, 0, "driver", "request", start, time.Now(), frames[i].n)
		}
	}
	// A workload with no open loop of its own gets one here all the same,
	// at a quarter of its closed-loop rate: the driver's metrics need one.
	rate := w.openRate
	if w.closedOnly() {
		rate = w.closedRate / 4
	}
	perFrame := float64(pl.first()[0].n)
	open := firstFrames(pl.first(), int(rate*seconds*shareTracedOpen/perFrame))
	t, err := runOpen(len(open), rate/perFrame, r.openWorkers(), recorded(open))
	if err != nil {
		return err
	}
	var late, service []float64
	for i := range open {
		late = append(late, us(t.late(i)))
		if pl.ops[open[i].first].isDiscover() {
			service = append(service, us(t.service(i)))
		}
	}
	discover, _ := r.latencies(open, t)
	dl, dd := summarise(late), summarise(discover)
	res.set(perLayer, "driver.sched_late_p50_us", dl.P50)
	res.set(perLayer, "driver.sched_late_p99_us", dl.P99)
	res.set(perLayer, "driver.discover_p99_us", dd.P99)
	res.set(perLayer, "driver.discover_p999_us", dd.Tail)
	res.set(perLayer, "driver.service_p50_us", median(service))
	res.set(perLayer, "driver.achieved_rate_ops_s", float64(len(open))*perFrame/t.wall.Seconds())
	res.set(perLayer, "driver.samples", float64(dd.N))
	res.Notes["discover_tail"] = dd

	n := int(w.closedRate * seconds * shareTracedClosed / perFrame)
	rest := pl.closed[len(pl.closed)-min(2*n, len(pl.closed)):] // clear of the frames the open loop used
	on, off := rest[:len(rest)/2], rest[len(rest)/2:]
	tOn := runClosed(len(on), r.closedCallers(), recorded(on))
	tOff := r.closed(off)
	capOn := float64(len(on)) / tOn.wall.Seconds()
	capOff := float64(len(off)) / tOff.wall.Seconds()
	res.set(perLayer, "driver.trace_overhead_frac", 1-capOn/capOff)

	// Pooled tails do not repeat well enough to be end-to-end metrics (see
	// README.md); the announces' p99 is kept here like the discovers'. A workload that mixes
	// announces in had them in the open loop above; the others get a loop
	// of phase C's frames, last, so the loops before it stay read-only.
	sent := [][]frame{open, on, off}
	announces, tAnnounce := open, t
	if w.announceShare == 0 {
		announces = firstFrames(pl.announce, int(w.announceRate*seconds*shareTracedOpen/perFrame))
		if tAnnounce, err = r.phase(announces, w.announceLoopRate()); err != nil {
			return err
		}
		sent = append(sent, announces)
	}
	_, announce := r.latencies(announces, tAnnounce)
	res.set(perLayer, "driver.announce_p99_us", summarise(announce).P99)

	orc := newOracle(sc.schema, sc.preload)
	r.checkKept(orc, w.announceShare == 0, open, on, off)
	for _, frames := range sent {
		for _, f := range frames {
			res.Attempted += f.n
		}
	}
	res.Failed += int(r.failures.Load())
	if err := r.firstErr.Load(); err != nil {
		res.FirstErr = (*err).Error()
	}
	return nil
}

func firstFrames(frames []frame, n int) []frame {
	if n > len(frames) {
		n = len(frames)
	}
	return frames[:n]
}

// selfByLayer sums self time over the ladder's spans, per layer.
func selfByLayer(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		if s.Layer != "driver" {
			out[s.Layer] += float64(self[s.ID]) / 1e3
		}
	}
	return out
}
