package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"time"

	"lorm/internal/chord"
	"lorm/internal/core"
	"lorm/internal/directory"
	"lorm/internal/discovery"
	"lorm/internal/emulate"
	"lorm/internal/hashing"
	"lorm/internal/metrics"
	"lorm/internal/resource"
	"lorm/internal/ring"
	"lorm/internal/routing"
	"lorm/internal/tracing"
	"lorm/internal/workload"
)

// The micro rungs time one layer's public functions in isolation, one
// caller, fixed counts. They do not depend on the workload's traffic, only
// on the seed and, where noted, on sizes the workload's ladder observed.

// sink keeps results alive so timed calls are not optimised away.
var sink any

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// perCallNS times n calls of fn as one block: for calls too short to time
// singly.
func perCallNS(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// medianCallNS times each call of fn on its own and returns the median.
func medianCallNS(n int, fn func(i int)) float64 {
	ns := make([]float64, n)
	for i := range ns {
		start := time.Now()
		fn(i)
		ns[i] = float64(time.Since(start).Nanoseconds())
	}
	return median(ns)
}

// probe is the fixed-shape request list every system's micro rung uses:
// 3-attribute exact queries, 3-attribute range queries of width 0.2, and
// fresh announces.
type probe struct {
	exact, ranged []resource.Query
	announces     []resource.Info
}

const probeSize = 500

func newProbe(gen *workload.Generator, seed int64) *probe {
	rng := workload.Split(seed, 3)
	p := &probe{}
	for i := 0; i < probeSize; i++ {
		p.exact = append(p.exact, gen.ExactQuery(rng, 3, requesterOf(i)))
		p.ranged = append(p.ranged, gen.RangeQuery(rng, 3, 0.2, requesterOf(i)))
		a := gen.Schema().At(rng.Intn(gen.Schema().Len()))
		p.announces = append(p.announces, resource.Info{Attr: a.Name, Value: gen.Value(rng, a), Owner: "probe" + ownerOf(i)})
	}
	return p
}

// microSystem fills one system's seven metrics. Announces go last: they
// change what later queries would return.
func microSystem(res *result, sys discovery.System, p *probe) error {
	layer := layerOf(sys.Name())
	var hops, visited, queries float64
	var firstErr error
	discover := func(qs []resource.Query) func(i int) {
		return func(i int) {
			r, err := sys.Discover(qs[i])
			if err != nil {
				firstErr = err
				return
			}
			hops += float64(r.Cost.Hops)
			visited += float64(r.Cost.Visited)
			queries++
		}
	}
	res.set(perLayer, layer+".discover_exact_ns", medianCallNS(len(p.exact), discover(p.exact)))
	res.set(perLayer, layer+".discover_range_ns", medianCallNS(len(p.ranged), discover(p.ranged)))
	res.set(perLayer, layer+".hops_per_query", hops/queries)
	res.set(perLayer, layer+".visited_per_query", visited/queries)
	m0 := mallocs()
	for i := range p.exact {
		discover(p.exact)(i)
		discover(p.ranged)(i)
	}
	res.set(perLayer, layer+".allocs_per_discover", float64(mallocs()-m0)/float64(2*len(p.exact)))
	res.set(perLayer, layer+".register_ns", medianCallNS(len(p.announces), func(i int) {
		if _, err := sys.Register(p.announces[i]); err != nil {
			firstErr = err
		}
	}))
	res.set(perLayer, layer+".dir_max_size", float64(slices.Max(sys.DirectorySizes())))
	if firstErr != nil {
		return fmt.Errorf("%s micro rung: %w", sys.Name(), firstErr)
	}
	return nil
}

// fabricOp is what a system does to the routing fabric for one operation:
// Begin, a Forward per hop, a Visit per directory consulted, Finish.
func fabricOp(f *routing.Fabric, kind routing.Kind, hops, visits int) {
	op := f.Begin(kind, "bench")
	for k := 0; k < hops; k++ {
		op.Forward("node", uint64(k), routing.ReasonFingerForward)
	}
	for k := 0; k < visits; k++ {
		op.Visit("node", uint64(k))
	}
	op.Finish()
}

// microRouting times one fabric op — Begin, hops Forwards, visits Visits,
// Finish — with no observer, with the metrics observer a gateway attaches,
// and with a tracer sampling everything.
func microRouting(res *result, hops, visits int) {
	const n = 20000
	run := func(obs routing.Observer) (ns, allocs float64) {
		f := routing.NewFabric("lorm")
		if obs != nil {
			f.Observe(obs)
		}
		m0 := mallocs()
		ns = perCallNS(n, func(int) { fabricOp(f, routing.OpDiscover, hops, visits) })
		return ns, float64(mallocs()-m0) / n
	}
	bare, _ := run(nil)
	withMetrics, allocs := run(routing.NewMetricsObserver(metrics.NewRegistry()))
	traced, _ := run(tracing.New(tracing.Config{Registry: metrics.NewRegistry(), SampleRate: 1}))
	res.set(perLayer, "routing.op_bare_ns", bare)
	res.set(perLayer, "routing.op_metrics_ns", withMetrics)
	res.set(perLayer, "routing.op_traced_ns", traced)
	res.set(perLayer, "routing.allocs_per_op", allocs)
}

// microOverlays times Lookup from a random node to a random key and the
// NextNode range-walk step on both overlays at the deployment's size.
func microOverlays(res *result, lorm *core.System, r *chord.Ring, seed int64) {
	const lookups, steps = 20000, 200000
	rng := workload.Split(seed, 4)

	ov := lorm.Overlay()
	cnodes := ov.Nodes()
	var chops int
	res.set(perLayer, "cycloid.lookup_ns", perCallNS(lookups, func(int) {
		route, _ := ov.Lookup(cnodes[rng.Intn(len(cnodes))], ov.IDOf(rng.Uint64()%ov.Capacity()))
		chops += route.Hops
	}))
	res.set(perLayer, "cycloid.hops_per_lookup", float64(chops)/lookups)
	ccur := cnodes[0]
	res.set(perLayer, "cycloid.next_node_ns", perCallNS(steps, func(int) { ccur, _ = ov.NextNode(ccur) }))

	rnodes := r.Nodes()
	var rhops int
	res.set(perLayer, "chord.lookup_ns", perCallNS(lookups, func(int) {
		route, _ := r.Lookup(rnodes[rng.Intn(len(rnodes))], r.Space().Fold(rng.Uint64()))
		rhops += route.Hops
	}))
	res.set(perLayer, "chord.hops_per_lookup", float64(rhops)/lookups)
	rcur := rnodes[0]
	res.set(perLayer, "chord.next_node_ns", perCallNS(steps, func(int) { rcur, _ = r.NextNode(rcur) }))
	sink = []any{ccur, rcur}
}

// storeOf builds a directory of the given size from the preload, which is
// ordered attribute by attribute: like a real node's directory it holds a
// few attributes' entries, each in value order.
func storeOf(preload []resource.Info, size int) *directory.Store {
	s := &directory.Store{}
	for i := 0; i < size && i < len(preload); i++ {
		s.Add(directory.Entry{Key: uint64(i), Info: preload[i]})
	}
	return s
}

// microDirectory times MatchAppend on a directory as large as LORM's 99th
// percentile node and as large as SWORD's largest pool, and Add on the
// former. Each match asks for a tenth of one attribute's value range.
func microDirectory(res *result, preload []resource.Info, p99Size, maxSize int, rng *rand.Rand) {
	const n = 20000
	match := func(size int) float64 {
		s := storeOf(preload, size)
		if size > len(preload) {
			size = len(preload)
		}
		var buf []resource.Info
		return perCallNS(n, func(int) {
			in := preload[rng.Intn(size)]
			buf = s.MatchAppend(buf[:0], in.Attr, in.Value*0.95, in.Value*1.05)
		})
	}
	res.set(perLayer, "directory.match_ns", match(p99Size))
	res.set(perLayer, "directory.match_max_ns", match(maxSize))
	s := storeOf(preload, p99Size)
	res.set(perLayer, "directory.add_ns", perCallNS(n, func(i int) {
		s.Add(directory.Entry{Key: uint64(i), Info: preload[(p99Size+i)%len(preload)]})
	}))
}

// microDiscovery times the sub-query fan-out with nothing to do and the
// owner join on one typical three-attribute result.
func microDiscovery(res *result, typical *discovery.Result) {
	const n = 20000
	q := resource.Query{Subs: []resource.SubQuery{{Attr: "a"}, {Attr: "b"}, {Attr: "c"}}}
	res.set(perLayer, "discovery.runsubs_ns", perCallNS(n, func(int) {
		sink, _ = discovery.RunSubs(q, func(resource.SubQuery) ([]resource.Info, error) { return nil, nil })
	}))
	res.set(perLayer, "discovery.join_ns", perCallNS(n, func(int) {
		sink = discovery.Finish(&discovery.Result{PerAttr: typical.PerAttr})
	}))
}

func microHashing(res *result, schema *resource.Schema, rng *rand.Rand) {
	const n = 200000
	space := ring.NewSpace(20)
	attrs := schema.Attributes()
	var acc uint64
	res.set(perLayer, "hashing.consistent_ns", perCallNS(n, func(i int) {
		acc += hashing.Consistent(space, attrs[i%len(attrs)].Name)
	}))
	loc := hashing.NewLocalityFrom(space, attrs[0])
	values := make([]float64, 1024)
	for i := range values {
		values[i] = attrs[0].Min + rng.Float64()*(attrs[0].Max-attrs[0].Min)
	}
	res.set(perLayer, "hashing.locality_ns", perCallNS(n, func(i int) {
		acc += loc.Hash(values[i%len(values)])
	}))
	sink = acc
}

// microTracing times LORM's in-process discover with a tracer attached at
// sampling rate 0 and 1, less the same calls with none attached.
func microTracing(res *result, lorm *core.System, p *probe) {
	run := func() float64 {
		return perCallNS(len(p.exact), func(i int) { sink, _ = lorm.Discover(p.exact[i]) })
	}
	with := func(rate float64) float64 {
		tr := tracing.New(tracing.Config{Registry: metrics.NewRegistry(), SampleRate: rate})
		lorm.RoutingFabric().Observe(tr)
		defer lorm.RoutingFabric().Detach(tr)
		return run()
	}
	run() // warm
	none := run()
	res.set(perLayer, "tracing.off_ns_per_op", with(0)-none)
	res.set(perLayer, "tracing.on_ns_per_op", with(1)-none)
}

// microEmulate calls LORM through the hop-latency wrapper at perHopWAN and
// bare, and splits the difference into what the wrapper meant to sleep
// (messages × perHopWAN) and how far the sleeps overshot.
func microEmulate(res *result, lorm discovery.System, queries []resource.Query) {
	wrapped := emulate.WithHopLatency(lorm, perHopWAN)
	var slept, msgs float64
	for _, q := range queries {
		start := time.Now()
		r, err := wrapped.Discover(q)
		mid := time.Now()
		if _, err2 := lorm.Discover(q); err != nil || err2 != nil {
			continue
		}
		end := time.Now()
		slept += us(mid.Sub(start) - end.Sub(mid))
		msgs += float64(r.Cost.Messages)
	}
	n := float64(len(queries))
	res.set(perLayer, "emulate.sleep_us_per_op", slept/n)
	res.set(perLayer, "emulate.charged_msgs_per_op", msgs/n)
	res.set(perLayer, "emulate.overshoot_us_per_op", (slept-msgs*us(perHopWAN))/n)
}

// percentileInt is the nearest-rank q-quantile of an int sample.
func percentileInt(xs []int, q float64) int {
	s := append([]int(nil), xs...)
	sort.Ints(s)
	return s[max(int(math.Ceil(q*float64(len(s))))-1, 0)]
}
