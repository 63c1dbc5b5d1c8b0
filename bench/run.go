package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"lorm/internal/discovery"
	"lorm/internal/resource"
	"lorm/internal/transport"
	"lorm/internal/workload"
)

// checkStride is how often a timed run keeps a discover's answer for
// checking against the oracle; the traced run keeps every one.
const checkStride = 64

// failedLatencyUS stands in for the latency of a failed op: an hour, so in
// the pooled distribution it lies beyond any latency limit.
const failedLatencyUS = 3.6e9

// runner sends a plan's frames to a deployment and keeps what came back.
type runner struct {
	w      *workloadSpec
	d      *deployment
	ops    []op
	stride int

	hops, visited []int32  // per op, from the returned Cost
	kept          []answer // per op index/stride, for ops with index%stride == 0
	failed        []bool   // per op: wire error, failed batch item or broken cost identity
	failures      atomic.Int64
	firstErr      atomic.Pointer[error]
}

func newRunner(w *workloadSpec, d *deployment, ops []op, stride int) *runner {
	return &runner{
		w: w, d: d, ops: ops, stride: stride,
		hops: make([]int32, len(ops)), visited: make([]int32, len(ops)),
		kept:   make([]answer, len(ops)/stride+1),
		failed: make([]bool, len(ops)),
	}
}

func (r *runner) fail(i int, err error) {
	r.failed[i] = true
	r.failures.Add(1)
	r.firstErr.CompareAndSwap(nil, &err)
}

// record files one op's outcome. Every response must satisfy
// Messages == Hops + Visited.
func (r *runner) record(i int, cost discovery.Cost, owners []string, matches []resource.Info, err error) {
	if err != nil {
		r.fail(i, fmt.Errorf("op %d: %w", i, err))
		return
	}
	if cost.Messages != cost.Hops+cost.Visited {
		r.fail(i, fmt.Errorf("op %d: cost %v breaks messages = hops + visited", i, cost))
		return
	}
	r.hops[i], r.visited[i] = int32(cost.Hops), int32(cost.Visited)
	if r.ops[i].isDiscover() && i%r.stride == 0 {
		r.kept[i/r.stride] = answer{owners: owners, matches: matches}
	}
}

// flatten concatenates per-attribute matches the way the gateway does.
func flatten(perAttr map[string][]resource.Info) []resource.Info {
	var out []resource.Info
	for _, infos := range perAttr {
		out = append(out, infos...)
	}
	return out
}

// issue sends one frame and records each of its ops.
func (r *runner) issue(f frame) {
	first := &r.ops[f.first]
	switch {
	case r.w.inProc:
		for i := f.first; i < f.first+f.n; i++ {
			r.inProc(i)
		}
	case f.n == 1 && first.isDiscover():
		owners, matches, cost, err := r.client(f).Discover(first.query.Subs, first.query.Requester)
		r.record(f.first, cost, owners, matches, err)
	case f.n == 1:
		cost, err := r.client(f).Register(first.info)
		r.record(f.first, cost, nil, nil, err)
	case first.isDiscover():
		queries := make([]transport.BatchQuery, f.n)
		for k := range queries {
			q := r.ops[f.first+k].query
			queries[k] = transport.BatchQuery{Subs: q.Subs, Requester: q.Requester}
		}
		results, err := r.client(f).DiscoverBatch(queries)
		r.recordBatch(f, results, err)
	default:
		infos := make([]resource.Info, f.n)
		for k := range infos {
			infos[k] = r.ops[f.first+k].info
		}
		results, err := r.client(f).RegisterBatch(infos)
		r.recordBatch(f, results, err)
	}
}

func (r *runner) inProc(i int) {
	o := &r.ops[i]
	sys := r.d.served[o.sys]
	if !o.isDiscover() {
		cost, err := sys.Register(o.info)
		r.record(i, cost, nil, nil, err)
		return
	}
	res, err := sys.Discover(o.query)
	if err != nil {
		r.fail(i, fmt.Errorf("op %d: %w", i, err))
		return
	}
	var matches []resource.Info
	if i%r.stride == 0 {
		matches = flatten(res.PerAttr)
	}
	r.record(i, res.Cost, res.Owners, matches, nil)
}

func (r *runner) recordBatch(f frame, results []transport.BatchResult, err error) {
	for k := 0; k < f.n; k++ {
		switch {
		case err != nil:
			r.fail(f.first+k, fmt.Errorf("op %d: %w", f.first+k, err))
		case !results[k].OK:
			r.fail(f.first+k, fmt.Errorf("op %d: %s", f.first+k, results[k].Error))
		default:
			r.record(f.first+k, results[k].Cost, results[k].Owners, results[k].Matches, nil)
		}
	}
}

// client spreads frames over the connections round robin.
func (r *runner) client(f frame) *transport.Client {
	return r.d.clients[(f.first/f.n)%len(r.d.clients)]
}

// openWorkers is how many frames an open-loop phase can have outstanding:
// every window slot of every connection over TCP. In process it is eight
// callers per processor: a range query that walks a thousand nodes must not
// hold up the point queries due behind it, or every percentile reports
// head-of-line blocking in the driver.
func (r *runner) openWorkers() int {
	if r.w.inProc {
		return 8 * runtime.NumCPU()
	}
	return len(r.d.clients) * clientWindow
}

func (r *runner) closedCallers() int {
	if r.w.inflight > 0 {
		return r.w.inflight
	}
	return runtime.NumCPU()
}

// phase runs frames as an open loop offering opsPerSec, or, when that is
// zero, as a closed loop.
func (r *runner) phase(frames []frame, opsPerSec float64) (*timing, error) {
	if opsPerSec == 0 || len(frames) == 0 {
		return r.closed(frames), nil
	}
	framesPerSec := opsPerSec / float64(frames[0].n)
	return runOpen(len(frames), framesPerSec, r.openWorkers(), func(i int) { r.issue(frames[i]) })
}

func (r *runner) closed(frames []frame) *timing {
	return runClosed(len(frames), r.closedCallers(), func(i int) { r.issue(frames[i]) })
}

// latencies splits a phase's per-frame latencies into one sample per op,
// discovers apart from announces: a frame's latency is charged to every op
// in it, and a failed op is charged failedLatencyUS.
func (r *runner) latencies(frames []frame, t *timing) (discover, announce []float64) {
	for fi, f := range frames {
		for i := f.first; i < f.first+f.n; i++ {
			v := us(t.latency(fi))
			if r.failed[i] {
				v = failedLatencyUS
			}
			if r.ops[i].isDiscover() {
				discover = append(discover, v)
			} else {
				announce = append(announce, v)
			}
		}
	}
	return discover, announce
}

// latencyWindow is how many consecutive samples one window of
// discover_win_p99_us holds: the fewest that leave ten beyond the 99th
// percentile. Samples are per op, so with frames of n ops those ten are
// 10/n distinct latencies.
const latencyWindow = 1000

// windowP99 is discover_win_p99_us: the p99 of a typical window of
// latencyWindow consecutive samples — unless failures reach the p99 of the
// whole phase, which no windowing may hide.
func windowP99(arrivalOrder []float64) float64 {
	if quantile(sortedCopy(arrivalOrder), 0.99) >= failedLatencyUS {
		return failedLatencyUS
	}
	return windowMedian(arrivalOrder, 0.99, latencyWindow)
}

// costs returns the mean hops and visited nodes over the frames' discovers.
func (r *runner) costs(phases ...[]frame) (hops, visited float64, n int) {
	var h, v int64
	for _, frames := range phases {
		for _, f := range frames {
			for i := f.first; i < f.first+f.n; i++ {
				if r.ops[i].isDiscover() && !r.failed[i] {
					h += int64(r.hops[i])
					v += int64(r.visited[i])
					n++
				}
			}
		}
	}
	if n == 0 {
		return 0, 0, 0
	}
	return float64(h) / float64(n), float64(v) / float64(n), n
}

// checkKept checks every kept answer of the frames and returns how many
// are wrong. Read-only phases are compared exactly; phases that mixed in
// announces are checked for what holds whatever the interleaving was.
func (r *runner) checkKept(orc *oracle, readOnly bool, phases ...[]frame) int {
	wrong := 0
	for _, frames := range phases {
		for _, f := range frames {
			for i := f.first; i < f.first+f.n; i++ {
				if i%r.stride != 0 || !r.ops[i].isDiscover() || r.failed[i] {
					continue
				}
				check := checkDuringMix
				if readOnly {
					check = checkExact
				}
				if err := check(orc, r.ops[i].query, r.kept[i/r.stride]); err != nil {
					wrong++
					r.fail(i, err)
				}
			}
		}
	}
	return wrong
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// warmUp issues a quarter second's worth of read-only discovers from a
// stream of their own before timing, so lazily built state and the
// runtime's pools exist; it leaves the deployment's content untouched.
func warmUp(w *workloadSpec, d *deployment, gen *workload.Generator, seed int64) error {
	p := &planner{w: w, gen: gen, rng: workload.Split(seed, 2), nsys: len(d.served)}
	frames := p.frames(int(w.closedRate*0.25), 0)
	r := newRunner(w, d, p.ops, checkStride)
	r.closed(frames)
	if err := r.firstErr.Load(); err != nil {
		return fmt.Errorf("warm-up: %w", *err)
	}
	return nil
}
