package main

import (
	"fmt"
	"runtime"
	"time"

	"lorm/internal/discovery"
	"lorm/internal/emulate"
	"lorm/internal/experiments"
	"lorm/internal/resource"
	"lorm/internal/systemtest"
	"lorm/internal/transport"
	"lorm/internal/workload"
)

// scale is the deployment size: experiments.Paper() for every measured run,
// experiments.Quick() in the package's own tests.
type scale struct {
	p       experiments.Params
	schema  *resource.Schema
	gen     *workload.Generator
	preload []resource.Info
}

func newScale(p experiments.Params) *scale {
	schema := workload.ParetoSchema(p.M, p.Span, p.Alpha)
	gen := workload.NewGenerator(schema, p.Alpha)
	return &scale{
		p: p, schema: schema, gen: gen,
		// The preload is the deployment's fixed content, not part of the
		// seeded op list: it comes from the paper preset's own seed.
		preload: gen.Announcements(workload.Split(p.Seed, 0), p.K),
	}
}

// deployment is one freshly built and preloaded set of systems, with a
// gateway and pipelined clients in front of the first when the workload
// goes over TCP.
type deployment struct {
	served  []discovery.System // what requests reach: the systems, behind emulated hop latency if any
	server  *transport.Server
	clients []*transport.Client
}

// buildSystems constructs LORM, or every registered system, over the
// scale's node population and announces the preload in each.
func buildSystems(sc *scale, all bool) (*systemtest.Deployment, error) {
	p := sc.p
	opts := systemtest.Options{D: p.D, Bits: p.Bits, CompleteLORM: p.N == p.D*(1<<uint(p.D))}
	var dep *systemtest.Deployment
	if all {
		var err error
		if dep, err = systemtest.Build(sc.schema, p.N, opts); err != nil {
			return nil, err
		}
	} else {
		dep = &systemtest.Deployment{Schema: sc.schema, N: p.N}
		lorm := systemtest.Registry()[0]
		sys, err := lorm.Build(dep, sc.schema, systemtest.Addresses(p.N), opts)
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", lorm.Name, err)
		}
		dep.All = append(dep.All, sys)
	}
	for _, s := range dep.All {
		for _, in := range sc.preload {
			if _, err := s.Register(in); err != nil {
				return nil, fmt.Errorf("preload %s: %w", s.Name(), err)
			}
		}
	}
	return dep, nil
}

// connections is how many pipelined clients a TCP workload dials.
func connections() int { return runtime.NumCPU() }

// clientWindow is each client's in-flight window.
const clientWindow = 64

// serve puts a loopback gateway and connections() clients in front of sys.
func (d *deployment) serve(sys discovery.System) error {
	srv, err := transport.NewServer(sys, "127.0.0.1:0", nil)
	if err != nil {
		return err
	}
	d.server = srv
	for i := 0; i < connections(); i++ {
		c, err := transport.DialOptions(srv.Addr(), transport.Options{Window: clientWindow})
		if err != nil {
			return err
		}
		d.clients = append(d.clients, c)
	}
	return nil
}

// setUp is what setup_s times: build, preload, listen, dial.
func setUp(sc *scale, w *workloadSpec) (*deployment, error) {
	dep, err := buildSystems(sc, w.allSystems)
	if err != nil {
		return nil, err
	}
	d := &deployment{}
	for _, s := range dep.All {
		d.served = append(d.served, emulate.WithHopLatency(s, w.hop))
	}
	if !w.inProc {
		if err := d.serve(d.served[0]); err != nil {
			d.close()
			return nil, err
		}
	}
	return d, nil
}

// close stops the clients and the gateway and waits for their goroutines.
func (d *deployment) close() {
	for _, c := range d.clients {
		c.Close()
	}
	if d.server != nil {
		d.server.Close()
	}
}

// repeatSetUp sets up n times, keeping only the last deployment, and
// returns every set-up's duration.
func repeatSetUp(sc *scale, w *workloadSpec, n int) (*deployment, []time.Duration, error) {
	var (
		d     *deployment
		times []time.Duration
	)
	for i := 0; i < n; i++ {
		if d != nil {
			d.close()
			d = nil
			runtime.GC() // the discarded deployment must not crowd the next one's heap
		}
		start := time.Now()
		next, err := setUp(sc, w)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start))
		d = next
	}
	return d, times, nil
}

// liveHeapMB is the heap still reachable after a collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
