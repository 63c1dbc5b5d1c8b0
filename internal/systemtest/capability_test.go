package systemtest

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"lorm/internal/discovery"
	"lorm/internal/resource"
	"lorm/internal/routing"
	"lorm/internal/workload"
)

// capable is the union of the six capability faces every registered system
// must offer; the shared base in internal/capability implements them.
type capable interface {
	discovery.Crashable // Dynamic and System with it
	discovery.NetAware
	discovery.Replicated
	discovery.Balancer
	routing.Instrumented
}

// blackhole is a fault plane on which no message reaches anyone.
type blackhole struct{}

func (blackhole) Reachable(from, to string) bool { return false }

// answers reduces each query's outcome to one comparable string: the error,
// or every attribute's owner multiset.
func answers(t *testing.T, sys discovery.System, queries []resource.Query) []string {
	t.Helper()
	out := make([]string, len(queries))
	for i, q := range queries {
		res, err := sys.Discover(q)
		if err != nil {
			out[i] = "error: " + err.Error()
			continue
		}
		var b strings.Builder
		for _, sub := range q.Subs {
			fmt.Fprintf(&b, "%s=%v;", sub.Attr, ownerMultiset(res.PerAttr[sub.Attr]))
		}
		out[i] = b.String()
	}
	return out
}

// One conformance table over the registry: every system offers all six
// capability faces, and they behave alike wherever the contract is common.
// Each property runs on a fresh 48-node deployment of one system holding a
// skewed announcement workload (so there are hotspots to rebalance), next
// to an oracle holding the same pieces.
func TestCapabilityConformance(t *testing.T) {
	schema := workload.ParetoSchema(4, 500, 1.5)
	gen := workload.NewGenerator(schema, 1.5)
	anns := gen.SkewedAnnouncements(workload.Split(1013, 0), 40, 1.5)
	qrng := workload.Split(1013, 1)
	var queries []resource.Query
	for i := 0; i < 12; i++ {
		queries = append(queries,
			gen.ExactQuery(qrng, 1+i%3, fmt.Sprintf("req-%d", i)),
			gen.RangeQuery(qrng, 1+i%4, 0.5, fmt.Sprintf("req-r-%d", i)),
		)
	}
	oracle := discovery.NewOracle(schema)
	for _, in := range anns {
		oracle.Register(in)
	}
	want := answers(t, oracle, queries)

	for _, spec := range Registry() {
		// build deploys the system sparse (free Cycloid slots, so LORM can
		// rebalance) at the given replication factor and registers anns.
		build := func(t *testing.T, replicas int) capable {
			t.Helper()
			sys, err := spec.Build(&Deployment{Schema: schema, N: 48}, schema, Addresses(48), Options{D: 6, Bits: 18})
			if err != nil {
				t.Fatal(err)
			}
			c, ok := sys.(capable)
			if !ok {
				t.Fatalf("%s does not implement all six capability faces", sys.Name())
			}
			if got := c.Replicas(); got != 1 {
				t.Fatalf("Replicas() = %d on a fresh system, want 1", got)
			}
			if err := c.SetReplicas(replicas); err != nil {
				t.Fatal(err)
			}
			for _, in := range anns {
				if _, err := c.Register(in); err != nil {
					t.Fatal(err)
				}
			}
			return c
		}
		same := func(t *testing.T, got, want []string, when string) {
			t.Helper()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: query %d answered %s, want %s", when, i, got[i], want[i])
				}
			}
		}

		t.Run(spec.Name+"/membership", func(t *testing.T) {
			c := build(t, 1)
			if c.Name() != spec.Name || c.Schema() != schema || c.RoutingFabric() == nil {
				t.Fatal("Name, Schema or RoutingFabric wrong")
			}
			live := c.NodeAddrs()[0]
			if err := c.AddNode(live); err == nil {
				t.Fatalf("AddNode(%q) of a live address accepted", live)
			}
			if err := c.RemoveNode("ghost"); err == nil {
				t.Fatal("RemoveNode of an unknown address accepted")
			}
			if _, err := c.FailNode("ghost"); err == nil {
				t.Fatal("FailNode of an unknown address accepted")
			}
			// Racing joins of one address: the live-address check and the
			// join are one atomic step, so exactly one caller wins.
			errs := make(chan error, 4)
			for i := 0; i < cap(errs); i++ {
				go func() { errs <- c.AddNode("newbie") }()
			}
			won := 0
			for i := 0; i < cap(errs); i++ {
				if <-errs == nil {
					won++
				}
			}
			if won != 1 {
				t.Fatalf("%d of 4 racing AddNode calls for one address succeeded, want 1", won)
			}
			if c.NodeCount() != 49 || len(c.NodeAddrs()) != 49 {
				t.Fatalf("after a join: NodeCount %d, %d addresses, want 49", c.NodeCount(), len(c.NodeAddrs()))
			}
			if err := c.RemoveNode("newbie"); err != nil {
				t.Fatal(err)
			}
			c.Maintain()
			if c.NodeCount() != 48 || len(c.NodeAddrs()) != 48 {
				t.Fatalf("after the leave: NodeCount %d, %d addresses, want 48", c.NodeCount(), len(c.NodeAddrs()))
			}
			same(t, answers(t, c, queries), want, "after join, graceful leave and Maintain")
		})

		// NaN fails every comparison and ±Inf is no value: the binary wire
		// carries both, so every system must refuse them and store nothing.
		t.Run(spec.Name+"/non-finite", func(t *testing.T) {
			c := build(t, 1)
			attr := schema.At(0).Name
			for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				if _, err := c.Register(resource.Info{Attr: attr, Value: v, Owner: "site-x"}); err == nil {
					t.Fatalf("Register of value %v accepted", v)
				}
				for _, sub := range []resource.SubQuery{{Attr: attr, Low: v, High: 100}, {Attr: attr, Low: 1, High: v}, {Attr: attr, Low: v, High: v}} {
					if _, err := c.Discover(resource.Query{Subs: []resource.SubQuery{sub}, Requester: "req-x"}); err == nil {
						t.Fatalf("Discover of %+v accepted", sub)
					}
				}
			}
			same(t, answers(t, c, queries), want, "after refused non-finite announcements")
		})

		t.Run(spec.Name+"/replicas", func(t *testing.T) {
			c := build(t, 1)
			if err := c.SetReplicas(0); err == nil {
				t.Fatal("SetReplicas(0) accepted")
			}
			if err := c.SetReplicas(1 << 30); err == nil {
				t.Fatal("replication factor beyond the overlay's capacity accepted")
			}
			if err := c.SetReplicas(3); err != nil {
				t.Fatal(err)
			}
			if got := c.Replicas(); got != 3 {
				t.Fatalf("Replicas() = %d after SetReplicas(3)", got)
			}
		})

		t.Run(spec.Name+"/loads", func(t *testing.T) {
			c := build(t, 1)
			loads, again := c.DirectoryLoads(), c.DirectoryLoads()
			sum := 0
			for i, l := range loads {
				if again[i] != l {
					t.Fatalf("two DirectoryLoads calls disagree at %d: %v vs %v", i, l, again[i])
				}
				sum += l.Entries
			}
			sizes := 0
			for _, sz := range c.DirectorySizes() {
				sizes += sz
			}
			if sum != sizes || sum == 0 {
				t.Fatalf("sum(DirectoryLoads) = %d, sum(DirectorySizes) = %d", sum, sizes)
			}
		})

		t.Run(spec.Name+"/rebalance", func(t *testing.T) {
			c := build(t, 1)
			stats, err := c.Rebalance()
			if err != nil {
				t.Fatal(err)
			}
			if stats.Migrations == 0 && stats.Blocked == 0 {
				t.Fatalf("pass over a skewed deployment neither moved nor blocked: %v", stats)
			}
			same(t, answers(t, c, queries), want, "after Rebalance")
		})

		t.Run(spec.Name+"/reachability", func(t *testing.T) {
			c := build(t, 1)
			c.SetReachability(blackhole{})
			cut := answers(t, c, queries)
			differs := false
			for i := range want {
				differs = differs || cut[i] != want[i]
			}
			if !differs {
				t.Fatal("a plane that cuts every link changed no answer")
			}
			c.SetReachability(nil)
			same(t, answers(t, c, queries), want, "after SetReachability(nil)")
		})

		t.Run(spec.Name+"/crash", func(t *testing.T) {
			c := build(t, 2)
			addrs := c.NodeAddrs()
			if _, err := c.FailNode(addrs[len(addrs)/2]); err != nil {
				t.Fatal(err)
			}
			c.Maintain()
			c.Repair()
			if a, r := c.Repair(); a != 0 || r != 0 {
				t.Fatalf("second Repair not idempotent: (%d, %d)", a, r)
			}
			same(t, answers(t, c, queries), want, "after FailNode, Maintain and Repair at r = 2")
		})
	}
}
