package systemtest

import (
	"fmt"
	"sort"
	"testing"

	"lorm/internal/discovery"
	"lorm/internal/resource"
	"lorm/internal/workload"
)

// ownerSet reduces a per-attribute result to its sorted unique owner set —
// the semantic content all systems must agree on (MAAN's dual storage can
// surface a piece through either index, so raw piece lists may differ in
// multiplicity but never in membership).
func ownerSet(infos []resource.Info) []string {
	seen := map[string]bool{}
	for _, in := range infos {
		seen[in.Owner] = true
	}
	out := make([]string, 0, len(seen))
	for o := range seen {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The central correctness property of the whole comparison: on identical
// workloads, every DHT-based system returns exactly the brute-force
// oracle's answer — same joined owner set, same per-attribute owner sets —
// for exact, range, half-open and multi-attribute queries. A resource
// announced twice is two pieces: the systems that store each piece once
// (all but MAAN, which merges what its two indices return and so cannot
// tell a re-announce from its own second copy) must return both, like the
// oracle.
func TestAllSystemsMatchOracle(t *testing.T) {
	schema := resource.MustSchema(
		resource.Attribute{Name: "cpu", Min: 100, Max: 3200},
		resource.Attribute{Name: "mem", Min: 0, Max: 8192},
		resource.Attribute{Name: "disk", Min: 1, Max: 2000},
		resource.Attribute{Name: "bandwidth", Min: 1, Max: 1000},
	)
	dep, err := Build(schema, 128, Options{D: 6, Bits: 18})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(schema, 1.5)
	rng := workload.Split(1001, 0)
	anns := gen.Announcements(rng, 60)
	dups := []resource.Info{anns[0], anns[77], anns[200]}
	for _, in := range append(anns, dups...) {
		if err := dep.RegisterEverywhere(in); err != nil {
			t.Fatal(err)
		}
	}

	qrng := workload.Split(1001, 1)
	queries := make([]resource.Query, 0, 120)
	for i := 0; i < 40; i++ {
		queries = append(queries,
			gen.ExactQuery(qrng, 1+i%3, fmt.Sprintf("req-%d", i)),
			gen.RangeQuery(qrng, 1+i%4, 0.5, fmt.Sprintf("req-r-%d", i)),
			gen.HalfOpenRangeQuery(qrng, 1+i%2, fmt.Sprintf("req-h-%d", i)),
		)
	}

	for i, dup := range dups {
		queries = append(queries, resource.Query{
			Subs:      []resource.SubQuery{{Attr: dup.Attr, Low: dup.Value, High: dup.Value}},
			Requester: fmt.Sprintf("req-d-%d", i),
		})
	}

	for qi, q := range queries {
		want, err := dep.Oracle.Discover(q)
		if err != nil {
			t.Fatalf("oracle on query %d: %v", qi, err)
		}
		for _, sys := range dep.Systems() {
			got, err := sys.Discover(q)
			if err != nil {
				t.Fatalf("%s on query %d (%v): %v", sys.Name(), qi, q, err)
			}
			if !equalStrings(got.Owners, want.Owners) {
				t.Fatalf("%s query %d (%v): owners %v, oracle %v",
					sys.Name(), qi, q, got.Owners, want.Owners)
			}
			for attr, infos := range want.PerAttr {
				if !equalStrings(ownerSet(got.PerAttr[attr]), ownerSet(infos)) {
					t.Fatalf("%s query %d attr %s: owner set %v, oracle %v",
						sys.Name(), qi, attr, ownerSet(got.PerAttr[attr]), ownerSet(infos))
				}
				if sys.Name() != "maan" && !equalStrings(ownerMultiset(got.PerAttr[attr]), ownerMultiset(infos)) {
					t.Fatalf("%s query %d attr %s: owner multiset %v, oracle %v",
						sys.Name(), qi, attr, ownerMultiset(got.PerAttr[attr]), ownerMultiset(infos))
				}
			}
		}
	}
}

// Theorem 4.2 as an executable invariant: MAAN stores twice the pieces of
// LORM/Mercury/SWORD on the same workload.
func TestMAANStoresTwiceTheInformation(t *testing.T) {
	schema := resource.MustSchema(
		resource.Attribute{Name: "cpu", Min: 100, Max: 3200},
		resource.Attribute{Name: "mem", Min: 0, Max: 8192},
	)
	dep, err := Build(schema, 64, Options{D: 6, Bits: 18})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(schema, 1.5)
	rng := workload.Split(1002, 0)
	infos := gen.Announcements(rng, 50)
	for _, in := range infos {
		if err := dep.RegisterEverywhere(in); err != nil {
			t.Fatal(err)
		}
	}
	totals := map[string]int{}
	for _, sys := range dep.Systems() {
		sum := 0
		for _, sz := range sys.DirectorySizes() {
			sum += sz
		}
		totals[sys.Name()] = sum
	}
	n := len(infos)
	for _, name := range Names() {
		if name == "maan" {
			continue // dual registration, checked below
		}
		if totals[name] != n {
			t.Errorf("%s stores %d pieces, want %d", name, totals[name], n)
		}
	}
	if totals["maan"] != 2*n {
		t.Errorf("maan stores %d pieces, want %d (Theorem 4.2)", totals["maan"], 2*n)
	}
}

// SWORD's range queries visit exactly one node per attribute; LORM's stay
// within a cluster (≤ d+1); MAAN visits at least two nodes per attribute.
func TestVisitedNodeShapes(t *testing.T) {
	schema := resource.MustSchema(
		resource.Attribute{Name: "cpu", Min: 100, Max: 3200},
		resource.Attribute{Name: "mem", Min: 0, Max: 8192},
	)
	dep, err := Build(schema, 128, Options{D: 6, Bits: 18})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(schema, 1.5)
	rng := workload.Split(1003, 0)
	for _, in := range gen.Announcements(rng, 40) {
		if err := dep.RegisterEverywhere(in); err != nil {
			t.Fatal(err)
		}
	}
	qrng := workload.Split(1003, 1)
	for i := 0; i < 25; i++ {
		q := gen.RangeQuery(qrng, 2, 0.5, fmt.Sprintf("req-%d", i))
		check := func(sys discovery.System, pred func(v int) bool, desc string) {
			res, err := sys.Discover(q)
			if err != nil {
				t.Fatalf("%s: %v", sys.Name(), err)
			}
			if !pred(res.Cost.Visited) {
				t.Fatalf("%s visited %d nodes on %v, want %s", sys.Name(), res.Cost.Visited, q, desc)
			}
		}
		check(dep.SWORD, func(v int) bool { return v == 2 }, "exactly one per attribute")
		check(dep.LORM, func(v int) bool { return v >= 2 && v <= 2*(6+1) }, "within one cluster per attribute")
		check(dep.MAAN, func(v int) bool { return v >= 4 }, "at least two per attribute")
	}
}

// Churn equivalence: after joins and graceful departures with maintenance,
// all systems still answer exactly like the oracle.
func TestChurnPreservesAnswers(t *testing.T) {
	schema := resource.MustSchema(
		resource.Attribute{Name: "cpu", Min: 100, Max: 3200},
		resource.Attribute{Name: "mem", Min: 0, Max: 8192},
	)
	dep, err := Build(schema, 80, Options{D: 6, Bits: 18})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(schema, 1.5)
	rng := workload.Split(1004, 0)
	for _, in := range gen.Announcements(rng, 40) {
		if err := dep.RegisterEverywhere(in); err != nil {
			t.Fatal(err)
		}
	}
	var dynamics []discovery.Dynamic
	for _, sys := range dep.Systems() {
		dyn, ok := sys.(discovery.Dynamic)
		if !ok {
			t.Fatalf("%s does not support churn", sys.Name())
		}
		dynamics = append(dynamics, dyn)
	}
	for round := 0; round < 8; round++ {
		addr := fmt.Sprintf("churner-%02d", round)
		for _, dyn := range dynamics {
			if err := dyn.AddNode(addr); err != nil {
				t.Fatalf("%s add: %v", dyn.Name(), err)
			}
		}
		victims := dep.LORM.NodeAddrs()
		victim := victims[(round*53)%len(victims)]
		for _, dyn := range dynamics {
			if err := dyn.RemoveNode(victim); err != nil {
				t.Fatalf("%s remove %s: %v", dyn.Name(), victim, err)
			}
			dyn.Maintain()
		}
	}
	qrng := workload.Split(1004, 1)
	for i := 0; i < 20; i++ {
		q := gen.RangeQuery(qrng, 2, 0.5, fmt.Sprintf("req-%d", i))
		want, err := dep.Oracle.Discover(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, sys := range dep.Systems() {
			got, err := sys.Discover(q)
			if err != nil {
				t.Fatalf("%s post-churn: %v", sys.Name(), err)
			}
			if !equalStrings(got.Owners, want.Owners) {
				t.Fatalf("%s post-churn owners %v, oracle %v", sys.Name(), got.Owners, want.Owners)
			}
		}
	}
}

func TestBuildOptions(t *testing.T) {
	schema := resource.MustSchema(resource.Attribute{Name: "cpu", Min: 0, Max: 1})
	dep, err := Build(schema, 10, Options{D: 4, Bits: 16, SkipMercury: true})
	if err != nil {
		t.Fatal(err)
	}
	if dep.Mercury != nil {
		t.Fatal("SkipMercury ignored")
	}
	if want := len(Names()) - 1; len(dep.Systems()) != want {
		t.Fatalf("Systems() = %d entries, want %d", len(dep.Systems()), want)
	}
	dep2, err := Build(schema, 0, Options{D: 4, CompleteLORM: true, SkipMercury: true})
	if err != nil {
		t.Fatal(err)
	}
	if dep2.LORM.NodeCount() != 64 {
		t.Fatalf("complete LORM has %d nodes, want 64", dep2.LORM.NodeCount())
	}
}

// String-described attributes flow through every system end to end: an
// "os" domain registered alongside numeric attributes, queried by exact
// description and by prefix range, must match the oracle everywhere.
func TestStringAttributesEndToEnd(t *testing.T) {
	osDom := resource.MustStringDomain("os",
		"windows", "linux-ubuntu", "linux-fedora", "linux-debian", "macos")
	schema := resource.MustSchema(
		resource.Attribute{Name: "cpu", Min: 100, Max: 3200},
		osDom.Attribute(),
	)
	dep, err := Build(schema, 64, Options{D: 6, Bits: 18})
	if err != nil {
		t.Fatal(err)
	}
	hosts := []struct {
		owner string
		cpu   float64
		os    string
	}{
		{"h1", 2000, "linux-ubuntu"},
		{"h2", 2400, "linux-fedora"},
		{"h3", 2800, "windows"},
		{"h4", 1000, "linux-debian"},
		{"h5", 3000, "macos"},
	}
	for _, h := range hosts {
		if err := dep.RegisterEverywhere(resource.Info{Attr: "cpu", Value: h.cpu, Owner: h.owner}); err != nil {
			t.Fatal(err)
		}
		if err := dep.RegisterEverywhere(resource.Info{Attr: "os", Value: osDom.MustEncode(h.os), Owner: h.owner}); err != nil {
			t.Fatal(err)
		}
	}
	linux, err := osDom.Prefix("linux-")
	if err != nil {
		t.Fatal(err)
	}
	q := resource.Query{
		Subs: []resource.SubQuery{
			{Attr: "cpu", Low: 1500, High: 3200},
			linux,
		},
		Requester: "r",
	}
	want, err := dep.Oracle.Discover(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Owners) != 2 || want.Owners[0] != "h1" || want.Owners[1] != "h2" {
		t.Fatalf("oracle owners = %v, want [h1 h2]", want.Owners)
	}
	for _, sys := range dep.Systems() {
		got, err := sys.Discover(q)
		if err != nil {
			t.Fatalf("%s: %v", sys.Name(), err)
		}
		if !equalStrings(got.Owners, want.Owners) {
			t.Fatalf("%s: owners %v, want %v", sys.Name(), got.Owners, want.Owners)
		}
	}
}
