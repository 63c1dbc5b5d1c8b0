package art

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"lorm/internal/resource"
	"lorm/internal/routing"
	"lorm/internal/workload"
)

func testSchema() *resource.Schema {
	return resource.MustSchema(
		resource.Attribute{Name: "cpu", Min: 100, Max: 3200},
		resource.Attribute{Name: "mem", Min: 0, Max: 8192},
	)
}

func build(t testing.TB, n int) *System {
	t.Helper()
	s, err := New(Config{Bits: 18, Schema: testSchema()})
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("node-%04d", i)
	}
	if err := s.AddNodes(addrs); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewNeedsSchema(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without schema should error")
	}
}

func TestGeometryShape(t *testing.T) {
	for _, bits := range []uint{1, 2, 3, 6, 14, 16, 18, 20, 40, 63} {
		g := newGeometry(bits)
		var sum uint
		for i, w := range g.widths {
			if w == 0 || w > 8 {
				t.Fatalf("bits=%d: width[%d]=%d outside (0,8]", bits, i, w)
			}
			sum += w
			if g.cum[i+1] != sum {
				t.Fatalf("bits=%d: cum[%d]=%d, want %d", bits, i+1, g.cum[i+1], sum)
			}
		}
		if sum != bits {
			t.Fatalf("bits=%d: widths sum to %d", bits, sum)
		}
		// Doubling from 2, capped at 8: the trie depth is O(log log K),
		// far below the bit count for realistic identifier widths.
		if bits >= 16 && g.levels() > int(bits/4)+1 {
			t.Fatalf("bits=%d: %d levels, not sub-logarithmic", bits, g.levels())
		}
	}
	g := newGeometry(18)
	want := []uint{2, 4, 8, 4}
	if len(g.widths) != len(want) {
		t.Fatalf("widths = %v, want %v", g.widths, want)
	}
	for i := range want {
		if g.widths[i] != want[i] {
			t.Fatalf("widths = %v, want %v", g.widths, want)
		}
	}
}

func TestGeometryDepthAndClusters(t *testing.T) {
	g := newGeometry(18)
	const a, b = 0x2F00F, 0x2F3FF
	d := g.sharedDepth(a, b)
	if d < 1 || d >= g.levels() {
		t.Fatalf("sharedDepth = %d, want interior", d)
	}
	if g.sharedDepth(a, a) != g.levels() {
		t.Fatalf("sharedDepth(a,a) = %d, want %d", g.sharedDepth(a, a), g.levels())
	}
	// childLo at depth t clears everything below the cum[t]-bit prefix,
	// and the full-depth cluster is the identifier itself.
	for tt := 0; tt <= g.levels(); tt++ {
		lo := g.childLo(a, tt)
		if g.sharedDepth(lo, a) < tt {
			t.Fatalf("childLo(%#x, %d) = %#x leaves the cluster", a, tt, lo)
		}
	}
	if g.childLo(a, g.levels()) != a {
		t.Fatalf("childLo at full depth = %#x, want %#x", g.childLo(a, g.levels()), a)
	}
}

func TestViewSuccessorMatchesLinearScan(t *testing.T) {
	s := build(t, 40)
	view := s.view.Load()
	if view == nil || len(view.nodes) != 40 {
		t.Fatal("view not built by AddNodes")
	}
	ids := make([]uint64, len(view.nodes))
	for i, n := range view.nodes {
		ids[i] = n.ID
	}
	if !sort.SliceIsSorted(ids, func(i, j int) bool { return ids[i] < ids[j] }) {
		t.Fatal("view not sorted")
	}
	for _, key := range []uint64{0, ids[0], ids[0] + 1, ids[39], ids[39] + 1, 1 << 17} {
		want := ids[0]
		for _, id := range ids {
			if id >= key {
				want = id
				break
			}
		}
		if got := view.successor(key).ID; got != want {
			t.Fatalf("successor(%d) = %d, want %d", key, got, want)
		}
	}
}

// The headline property: with a current view, an exact lookup descends at
// most levels() trie hops — a bound independent of n, versus Chord's
// (1/2)·log2 n average.
func TestDescentHopsBounded(t *testing.T) {
	s := build(t, 256)
	gen := workload.NewGenerator(testSchema(), 1.5)
	rng := workload.Split(41, 0)
	for _, in := range gen.Announcements(rng, 40) {
		if _, err := s.Register(in); err != nil {
			t.Fatal(err)
		}
	}
	qrng := workload.Split(41, 1)
	total := 0
	const queries = 100
	for i := 0; i < queries; i++ {
		q := gen.ExactQuery(qrng, 1, fmt.Sprintf("r%d", i))
		res, err := s.Discover(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost.Hops > s.geo.levels() {
			t.Fatalf("exact query took %d hops, want ≤ %d trie levels", res.Cost.Hops, s.geo.levels())
		}
		if res.Cost.Visited != 1 {
			t.Fatalf("exact query visited %d, want 1", res.Cost.Visited)
		}
		if res.Cost.Messages != res.Cost.Hops+res.Cost.Visited {
			t.Fatalf("cost invariant broken: %+v", res.Cost)
		}
		total += res.Cost.Hops
	}
	if mean := float64(total) / queries; mean >= 0.5*math.Log2(256) {
		t.Fatalf("mean hops %.2f, want below Chord's %.1f", mean, 0.5*math.Log2(256))
	}
}

func TestRangeQueryMatchesNaiveScan(t *testing.T) {
	s := build(t, 64)
	gen := workload.NewGenerator(testSchema(), 1.5)
	rng := workload.Split(42, 0)
	anns := gen.Announcements(rng, 30)
	for _, in := range anns {
		if _, err := s.Register(in); err != nil {
			t.Fatal(err)
		}
	}
	qrng := workload.Split(42, 1)
	for i := 0; i < 30; i++ {
		q := gen.RangeQuery(qrng, 2, 0.2, fmt.Sprintf("r%d", i))
		res, err := s.Discover(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, sub := range q.Subs {
			want := 0
			for _, in := range anns {
				if in.Attr == sub.Attr && sub.Matches(in.Value) {
					want++
				}
			}
			if got := len(res.PerAttr[sub.Attr]); got != want {
				t.Fatalf("query %d attr %s: %d matches, want %d", i, sub.Attr, got, want)
			}
		}
	}
}

// Joins and failures stay invisible to the descent until Maintain rebuilds
// the view; queries must stay correct across both epochs via the per-hop
// liveness checks and the ring fallback.
func TestStaleViewSurvivesChurn(t *testing.T) {
	s := build(t, 64)
	if err := s.SetReplicas(2); err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(testSchema(), 1.5)
	rng := workload.Split(43, 0)
	anns := gen.Announcements(rng, 40)
	for _, in := range anns {
		if _, err := s.Register(in); err != nil {
			t.Fatal(err)
		}
	}
	check := func(tag string) {
		t.Helper()
		qrng := workload.Split(43, 1)
		for i := 0; i < 20; i++ {
			q := gen.RangeQuery(qrng, 1, 0.15, fmt.Sprintf("%s-%d", tag, i))
			res, err := s.Discover(q)
			if err != nil {
				t.Fatal(err)
			}
			sub := q.Subs[0]
			want := 0
			for _, in := range anns {
				if in.Attr == sub.Attr && sub.Matches(in.Value) {
					want++
				}
			}
			if got := len(res.PerAttr[sub.Attr]); got != want {
				t.Fatalf("%s query %d: %d matches, want %d", tag, i, got, want)
			}
		}
	}
	check("fresh")
	for i := 0; i < 4; i++ {
		if err := s.AddNode(fmt.Sprintf("late-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	check("after-joins-before-rebuild")
	if _, err := s.FailNode(s.NodeAddrs()[10]); err != nil {
		t.Fatal(err)
	}
	check("after-crash-before-rebuild")
	s.Maintain()
	check("after-maintain")
}

func TestOutlinkCountsBounded(t *testing.T) {
	s := build(t, 48)
	counts := s.OutlinkCounts()
	if len(counts) != 48 {
		t.Fatalf("len = %d, want 48", len(counts))
	}
	// Per level t the node keeps at most 2^width[t-1] sibling links, so the
	// table is bounded by the geometry, not by n.
	max := 0
	for _, w := range s.geo.widths {
		max += 1 << w
	}
	for i, c := range counts {
		if c <= 0 || c > max {
			t.Fatalf("node %d keeps %d links, want within (0, %d]", i, c, max)
		}
	}
}

func TestGeometryAccessor(t *testing.T) {
	s := build(t, 20)
	if got := len(s.Geometry()); got != s.geo.levels() {
		t.Fatalf("Geometry len = %d, want %d", got, s.geo.levels())
	}
}

func TestRegisterUnknownAttribute(t *testing.T) {
	s := build(t, 8)
	if _, err := s.Register(resource.Info{Attr: "gpu", Value: 1, Owner: "x"}); err == nil {
		t.Fatal("unknown attribute should error")
	}
}

func TestDiscoverValidates(t *testing.T) {
	s := build(t, 8)
	if _, err := s.Discover(resource.Query{}); err == nil {
		t.Fatal("empty query should error")
	}
}

func TestValueKeySectorsAreMonotone(t *testing.T) {
	s := build(t, 8)
	sc := testSchema()
	for idx := 0; idx < sc.Len(); idx++ {
		a := sc.At(idx)
		prev := uint64(0)
		for f := 0.0; f <= 1.0; f += 0.05 {
			v := a.Quantile(f)
			k := s.valueKey(idx, v)
			if k < prev {
				t.Fatalf("attr %s: valueKey not monotone at quantile %.2f", a.Name, f)
			}
			prev = k
		}
		// Sector bounds: attribute idx owns [idx/m, (idx+1)/m).
		lo := s.valueKey(idx, a.Min)
		space := s.ring.Space()
		if want := space.Scale(float64(idx) / float64(sc.Len())); lo != want {
			t.Fatalf("attr %s sector base = %d, want %d", a.Name, lo, want)
		}
	}
}

// The descent must resolve to a node that owns the key (fresh view, no
// faults), for keys across the whole space — including empty top clusters
// where the successor wraps.
func TestRouteResolvesOwner(t *testing.T) {
	s := build(t, 32)
	from := s.ring.Nodes()[0]
	for i := 0; i < 200; i++ {
		key := uint64(i) * (1 << 18) / 200
		op := s.fabric.Begin(routing.OpDiscover, "probe")
		got, err := s.route(op, from, key)
		op.Finish()
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.ring.OwnerOf(key)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("route(%d) = %s, oracle owner %s", key, got.Addr, want.Addr)
		}
	}
}
