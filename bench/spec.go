package main

import (
	"math/rand"
	"time"

	"lorm/internal/resource"
	"lorm/internal/workload"
)

// The fixed set-up every workload shares is experiments.Paper(): 2048
// nodes, 200 attributes, 500 announcements each. What differs between
// workloads is how requests reach the systems and what they ask.

// runSeconds is the -seconds every report that is to be compared was taken
// at, and BENCHMARK.json's run_seconds. The flag exists because the
// acceptance driver passes --seconds; -compare refuses runs sized for
// different values, since the op counts, and with them the op list and the
// directory's growth, scale with it.
const runSeconds = 20

// Shares of -seconds each measured phase gets. The remaining tenth covers
// warm-up and draining in-flight requests between phases.
const (
	shareOpen     = 0.4 // phase A: open loop at openRate
	shareClosed   = 0.3 // phase B: closed loop, closedRate × seconds ops
	shareAnnounce = 0.2 // phase C: open-loop announces (read-only workloads)
)

// perHopWAN is the emulated one-way delay per overlay message of wan_tcp,
// and the delay the emulate.* layer metrics are taken at on every workload.
const perHopWAN = 200 * time.Microsecond

// workloadSpec is one traffic mix. Every rate is a literal fixed from the
// sizing probe on the reference box (see README.md), never derived at run
// time: a run offers the same load whatever the program under test does.
type workloadSpec struct {
	name string
	why  string

	inProc     bool          // direct System calls instead of a loopback TCP gateway
	hop        time.Duration // emulate.WithHopLatency around the served system
	allSystems bool          // every registered system instead of LORM alone
	frame      int           // ops per frame: 1 uses the singular verbs, more the batch verbs
	inflight   int           // closed-loop callers; 0 means one per processor

	// announceShare is the share of frames that announce, mixed into
	// phases A and B. Zero makes A and B read-only (answers are then
	// checked exactly against the oracle) and moves announces to phase C.
	announceShare float64

	// openRate is the ops/s phase A offers. Zero marks a workload whose
	// callers wait for each reply before asking again — in-process callers
	// of a library do — which makes every phase a closed loop: phase A is
	// dropped, phase B takes its time, and latency is a call's duration.
	openRate     float64
	closedRate   float64 // ops/s the seed sustains closed-loop; sizes phase B
	announceRate float64 // ops/s phase C offers, or is sized for when it is a closed loop

	setups    int // set-ups per run; setup_s is their median
	tracedOps int // ops replayed through the ladder in the traced pass

	// query builds discover op i of the workload.
	query func(g *workload.Generator, rng *rand.Rand, i int, requester string) resource.Query
}

var workloads = []workloadSpec{
	{
		name:  "point_tcp",
		why:   "1-3 attribute exact queries, singular verbs over loopback TCP to a LORM gateway: smallest frames, so per-message transport cost does most of the work",
		frame: 1, inflight: 16,
		openRate: 16000, closedRate: 42000, announceRate: 16000,
		setups: 5, tracedOps: 20000,
		query: func(g *workload.Generator, rng *rand.Rand, _ int, requester string) resource.Query {
			return g.ExactQuery(rng, 1+rng.Intn(3), requester)
		},
	},
	{
		name:  "range_mix_tcp",
		why:   "frames of 8 via the batch verbs, 70% range queries (width 0.2) and 30% fresh announces: large responses, range walks, directory writes beside readers",
		frame: 8, inflight: 16, announceShare: 0.3,
		openRate: 5000, closedRate: 12000,
		setups: 5, tracedOps: 8000,
		query: func(g *workload.Generator, rng *rand.Rand, _ int, requester string) resource.Query {
			return g.RangeQuery(rng, 1+rng.Intn(3), 0.2, requester)
		},
	},
	{
		name:   "walk_inproc",
		why:    "all five systems called in process, 1-10 attribute exact and range queries (the Fig. 4/5 load): no transport, so overlay lookups, range walks and directory matches do everything",
		inProc: true, allSystems: true, frame: 1,
		closedRate: 4900, announceRate: 40000,
		setups: 3, tracedOps: 1000,
		query: func(g *workload.Generator, rng *rand.Rand, i int, requester string) resource.Query {
			switch i % 4 {
			case 0, 2:
				return g.ExactQuery(rng, 1+(i/4)%10, requester)
			case 1:
				return g.RangeQuery(rng, 1+(i/4)%3, 0.5, requester)
			default:
				return g.HalfOpenRangeQuery(rng, 1+(i/4)%3, requester)
			}
		},
	},
	{
		name: "wan_tcp",
		why:  "3-attribute queries, half exact half range, LORM behind 200us per overlay message: latency is messages x hop delay, so CPU savings must not show here and routing changes show only here",
		hop:  perHopWAN, frame: 1, inflight: 16,
		openRate: 1000, closedRate: 2300, announceRate: 1000,
		setups: 5, tracedOps: 400,
		query: func(g *workload.Generator, rng *rand.Rand, i int, requester string) resource.Query {
			if i%2 == 0 {
				return g.ExactQuery(rng, 3, requester)
			}
			return g.RangeQuery(rng, 3, 0.2, requester)
		},
	},
}

func (w *workloadSpec) closedOnly() bool { return w.openRate == 0 }

// announceLoopRate is the rate phase C is offered at: announceRate, or zero
// — a closed loop, which the rate then only sizes — when callers wait.
func (w *workloadSpec) announceLoopRate() float64 {
	if w.closedOnly() {
		return 0
	}
	return w.announceRate
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricSpec names one reported number. BENCHMARK.json repeats name, unit
// and direction; spec_test.go keeps the two in step.
type metricSpec struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the baseline a change may lose
	exact  bool    // a count that must repeat exactly for one seed
}

var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "live_heap_mb", unit: "MB", better: "lower", bound: 0.02},
	{name: "discover_p50_us", unit: "us", better: "lower", bound: 0.15},
	{name: "discover_win_p99_us", unit: "us", better: "lower", bound: 0.25},
	{name: "announce_p50_us", unit: "us", better: "lower", bound: 0.15},
	{name: "capacity_ops_s", unit: "ops/s", better: "higher", bound: 0.1},
	{name: "cpu_us_per_op", unit: "us", better: "lower", bound: 0.25},
	{name: "hops_per_query", unit: "count", better: "lower", bound: 0.03, exact: true},
	{name: "visited_per_query", unit: "count", better: "lower", bound: 0.03, exact: true},
}

// perLayer lists the traced pass's metrics, one block per module. They have
// no bound: they say where an end-to-end change came from, they are not
// themselves accepted or rejected.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	lower := func(name, unit string) metricSpec { return metricSpec{name: name, unit: unit, better: "lower"} }
	higher := func(name, unit string) metricSpec { return metricSpec{name: name, unit: unit, better: "higher"} }
	out := []metricSpec{
		// driver: the benchmark's own behaviour.
		lower("driver.sched_late_p50_us", "us"),
		lower("driver.sched_late_p99_us", "us"),
		lower("driver.discover_p99_us", "us"),
		lower("driver.discover_p999_us", "us"),
		lower("driver.announce_p99_us", "us"),
		lower("driver.service_p50_us", "us"),
		higher("driver.achieved_rate_ops_s", "ops/s"),
		higher("driver.samples", "count"),
		lower("driver.unexplained_frac", "frac"),
		lower("driver.trace_overhead_frac", "frac"),
		// transport: codec, pipe, dispatch, sockets.
		lower("transport.rtt_full_p50_us", "us"),
		lower("transport.rtt_replay_p50_us", "us"),
		higher("transport.capacity_replay_ops_s", "ops/s"),
		lower("transport.req_bytes_per_op", "bytes"),
		lower("transport.resp_bytes_per_op", "bytes"),
		lower("transport.allocs_per_op", "count"),
		higher("transport.batch_items_per_frame", "count"),
		higher("transport.pipeline_calls", "count"),
		lower("transport.pipeline_breaks", "count"),
		lower("transport.retries", "count"),
		lower("transport.timeouts", "count"),
		lower("transport.redials", "count"),
		// emulate: the per-message WAN delay wrapper, always taken at perHopWAN.
		lower("emulate.sleep_us_per_op", "us"),
		lower("emulate.charged_msgs_per_op", "count"),
		lower("emulate.overshoot_us_per_op", "us"),
	}
	for _, sys := range []string{"core", "mercury", "sword", "maan", "art"} {
		out = append(out,
			lower(sys+".discover_exact_ns", "ns"),
			lower(sys+".discover_range_ns", "ns"),
			lower(sys+".register_ns", "ns"),
			lower(sys+".hops_per_query", "count"),
			lower(sys+".visited_per_query", "count"),
			lower(sys+".allocs_per_discover", "count"),
			lower(sys+".dir_max_size", "count"),
		)
	}
	out = append(out,
		lower("routing.op_bare_ns", "ns"),
		lower("routing.op_metrics_ns", "ns"),
		lower("routing.op_traced_ns", "ns"),
		lower("routing.allocs_per_op", "count"),
	)
	for _, ov := range []string{"chord", "cycloid"} {
		out = append(out,
			lower(ov+".lookup_ns", "ns"),
			lower(ov+".hops_per_lookup", "count"),
			lower(ov+".next_node_ns", "ns"),
			lower(ov+".detours", "count"),
		)
	}
	return append(out,
		lower("directory.match_ns", "ns"),
		lower("directory.match_max_ns", "ns"),
		lower("directory.add_ns", "ns"),
		lower("directory.matches_per_call", "count"),
		lower("directory.matches_total", "count"),
		lower("directory.adds_total", "count"),
		lower("discovery.runsubs_ns", "ns"),
		lower("discovery.join_ns", "ns"),
		lower("hashing.consistent_ns", "ns"),
		lower("hashing.locality_ns", "ns"),
		lower("tracing.off_ns_per_op", "ns"),
		lower("tracing.on_ns_per_op", "ns"),
	)
}

// layerOf maps a registered system's name to its module, the layer its
// metrics are filed under.
func layerOf(system string) string {
	if system == "lorm" {
		return "core"
	}
	return system
}
