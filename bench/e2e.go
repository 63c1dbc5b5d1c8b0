package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"lorm/internal/resource"
)

// reaskQueries and probeAnnounces size the check after quiescence.
const (
	reaskQueries   = 1000
	probeAnnounces = 200
)

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one pass of one workload.
type result struct {
	Workload  string           `json:"workload"`
	Pass      string           `json:"pass"` // "end_to_end" or "per_layer"
	Env       environment      `json:"env"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	OpListSHA string           `json:"op_list_sha256"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	FirstErr  string           `json:"first_error,omitempty"`
	Metrics   map[string]value `json:"metrics"`
	Notes     map[string]any   `json:"notes,omitempty"` // sample counts, lateness, whatever explains the metrics
}

func (r *result) set(spec []metricSpec, name string, v float64) {
	for _, m := range spec {
		if m.name == name {
			r.Metrics[name] = value{Value: v, Unit: m.unit}
			return
		}
	}
	panic("bench: metric " + name + " is not in the spec")
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runEndToEnd is the timed pass: set up, warm up, phase A (open loop),
// phase B (closed loop), phase C (announces, when A and B were read-only),
// then, off the clock, check the answers and work out the latencies. The
// recorder stays off.
func runEndToEnd(sc *scale, w *workloadSpec, seed int64, seconds float64, log io.Writer) (*result, error) {
	res := &result{Workload: w.name, Pass: "end_to_end", Seed: seed, Seconds: seconds,
		Metrics: map[string]value{}, Notes: map[string]any{}}

	d, setups, err := repeatSetUp(sc, w, w.setups)
	if err != nil {
		return nil, err
	}
	defer d.close()
	// Measured before the driver builds its own op list and oracle.
	res.set(endToEnd, "live_heap_mb", liveHeapMB())
	var setupS []float64
	for _, t := range setups {
		setupS = append(setupS, t.Seconds())
	}
	res.set(endToEnd, "setup_s", median(setupS))
	res.Notes["setup_s_each"] = setupS

	pl := makePlan(w, sc.gen, len(d.served), seed, seconds)
	res.OpListSHA = pl.sha
	orc := newOracle(sc.schema, sc.preload)
	if err := warmUp(w, d, sc.gen, seed); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "%s: %d ops (open %d frames, closed %d, announce %d), op list sha256 %s\n",
		w.name, len(pl.ops), len(pl.open), len(pl.closed), len(pl.announce), pl.sha)

	r := newRunner(w, d, pl.ops, checkStride)
	transportCalls := counterTotals()["transport_pipeline_calls_total"]
	// A collection before each phase, off the clock, so that no phase pays
	// for the garbage of the one before it.
	var cpu time.Duration
	timed := func(frames []frame, opsPerSec float64) (*timing, error) {
		runtime.GC()
		start := cpuTime()
		t, err := r.phase(frames, opsPerSec)
		cpu += cpuTime() - start
		return t, err
	}
	tOpen, err := timed(pl.open, w.openRate)
	if err != nil {
		return nil, err
	}
	tClosed, err := timed(pl.closed, 0)
	if err != nil {
		return nil, err
	}
	tAnnounce, err := timed(pl.announce, w.announceLoopRate())
	if err != nil {
		return nil, err
	}
	res.Notes["transport_calls"] = counterTotals()["transport_pipeline_calls_total"] - transportCalls

	// Answers kept during the phases are checked before any latency is
	// computed, so that a wrong answer is charged like any other failure.
	// The oracle holds only the preload here, which is what both checks
	// need: the exact one of read-only phases and the floor of mixed ones.
	r.checkKept(orc, w.announceShare == 0, pl.open, pl.closed)

	// Latency is taken under the open loop; a workload whose callers wait
	// for replies has none, and its latency is the closed loop's.
	latFrames, latTiming := pl.open, tOpen
	if w.closedOnly() {
		latFrames, latTiming = pl.closed, tClosed
	}
	discover, announce := r.latencies(latFrames, latTiming)
	if w.announceShare == 0 {
		_, announce = r.latencies(pl.announce, tAnnounce)
	}
	winP99 := windowP99(discover)                      // wants arrival order, which summarise destroys
	dd, da := summarise(discover), summarise(announce) // pooled: every op of the phase, stalls and failures included
	res.set(endToEnd, "discover_p50_us", dd.P50)
	res.set(endToEnd, "discover_win_p99_us", winP99)
	res.set(endToEnd, "announce_p50_us", da.P50)
	res.Notes["discover"] = dd
	res.Notes["announce"] = da

	closedOps := 0
	for _, f := range pl.closed {
		closedOps += f.n
	}
	res.set(endToEnd, "capacity_ops_s", float64(closedOps)/tClosed.wall.Seconds())
	res.set(endToEnd, "cpu_us_per_op", us(cpu)/float64(len(pl.ops)))
	hops, visited, queries := r.costs(pl.open, pl.closed)
	res.set(endToEnd, "hops_per_query", hops)
	res.set(endToEnd, "visited_per_query", visited)
	res.Notes["queries_costed"] = queries

	// How late the generator ran, and how the offered rate came out.
	var late []float64
	for i := range pl.open {
		late = append(late, us(tOpen.late(i)))
	}
	dl := summarise(late)
	res.Notes["generator_late"] = dl
	if len(late) > 0 {
		res.Notes["open_achieved_ops_s"] = float64(len(late)*w.frame) / tOpen.wall.Seconds()
	}
	fmt.Fprintf(log, "%s: discover latency, pooled %v\n%s: announce latency, pooled %v\n%s: generator lateness %v\n",
		w.name, dd, w.name, da, w.name, dl)

	// Off the clock: the state after quiescence, against an oracle that
	// received every announce.
	for i := range pl.ops {
		if o := &pl.ops[i]; !o.isDiscover() && o.sys == 0 {
			orc.add(o.info)
		}
	}
	after := checkAfterQuiescence(w, d, pl, orc)

	res.Attempted = len(pl.ops) + len(after.ops)
	res.Failed = int(r.failures.Load() + after.failures.Load())
	for _, run := range []*runner{r, after} {
		if err := run.firstErr.Load(); err != nil && res.FirstErr == "" {
			res.FirstErr = (*err).Error()
		}
	}
	return res, nil
}

// checkAfterQuiescence re-asks a sample of the plan's discovers and probes
// a sample of its announces by exact value, through the same path the
// workload used, against an oracle that received every announce. Nothing is
// in flight, so every answer must match exactly.
func checkAfterQuiescence(w *workloadSpec, d *deployment, pl *plan, orc *oracle) *runner {
	var ops []op
	asked, probed := 0, 0
	for i := range pl.ops {
		o := pl.ops[i]
		switch {
		case o.isDiscover() && asked < reaskQueries*len(d.served):
			asked++
		case !o.isDiscover() && probed < probeAnnounces*len(d.served):
			probed++
			o = op{sys: o.sys, query: resource.Query{
				Subs:      []resource.SubQuery{{Attr: o.info.Attr, Low: o.info.Value, High: o.info.Value}},
				Requester: requesterOf(i),
			}}
		default:
			continue
		}
		ops = append(ops, o)
	}
	// Singular frames whatever the workload's framing: the answers, not the
	// timing, matter here.
	frames := make([]frame, len(ops))
	for i := range frames {
		frames[i] = frame{first: i, n: 1}
	}
	r := newRunner(w, d, ops, 1)
	r.closed(frames)
	r.checkKept(orc, true, frames)
	return r
}
