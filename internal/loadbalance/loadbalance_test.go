package loadbalance

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lorm/internal/chord"
	"lorm/internal/cycloid"
	"lorm/internal/directory"
	"lorm/internal/discovery"
	"lorm/internal/replication"
	"lorm/internal/resource"
	"lorm/internal/routing"
)

func TestLedgerChargesSteps(t *testing.T) {
	f := routing.NewFabric("test")
	var l Ledger
	f.Observe(&l)
	op := f.Begin(routing.OpDiscover, "q1")
	op.Forward("a", 1, routing.ReasonFingerForward)
	op.Forward("b", 2, routing.ReasonRangeWalk)
	op.Forward("a", 1, routing.ReasonDetour)
	op.Visit("b", 2)
	op.Visit("c", 3)
	op.Finish()
	if got := l.Tally("a"); got != (Tally{Forwards: 2}) {
		t.Fatalf("Tally(a) = %+v", got)
	}
	if got := l.Tally("b"); got != (Tally{Visits: 1, Forwards: 1}) {
		t.Fatalf("Tally(b) = %+v", got)
	}
	if got := l.Tally("c"); got != (Tally{Visits: 1}) || got.Total() != 1 {
		t.Fatalf("Tally(c) = %+v", got)
	}
	if got := l.Tally("missing"); got != (Tally{}) {
		t.Fatalf("Tally(missing) = %+v", got)
	}
	if l.NeedsPath() {
		t.Fatal("ledger must not force path recording")
	}
	if len(op.Path()) != 0 {
		t.Fatal("attaching only the ledger should keep ops counter-only")
	}
	snap := l.Snapshot()
	if len(snap) != 3 || snap["a"].Forwards != 2 {
		t.Fatalf("Snapshot = %v", snap)
	}
	vl := l.VisitLoads([]string{"a", "b", "c", "d"})
	want := []int{0, 1, 1, 0}
	for i, nl := range vl {
		if nl.Entries != want[i] {
			t.Fatalf("VisitLoads[%d] = %+v, want %d", i, nl, want[i])
		}
	}
	l.Reset()
	if got := l.Tally("a"); got != (Tally{}) {
		t.Fatalf("after Reset Tally(a) = %+v", got)
	}
}

func loadsOf(entries ...int) []discovery.NodeLoad {
	out := make([]discovery.NodeLoad, len(entries))
	for i, e := range entries {
		out[i] = discovery.NodeLoad{Addr: fmt.Sprintf("n%02d", i), Entries: e}
	}
	return out
}

func TestAnalyze(t *testing.T) {
	if rep := Analyze(nil, 3); rep.Nodes != 0 || rep.Gini != 0 {
		t.Fatalf("empty Analyze = %+v", rep)
	}
	rep := Analyze(loadsOf(5, 5, 5, 5), 2)
	if rep.MaxMean != 1 || rep.Gini != 0 || rep.MeanEntries != 5 || rep.TotalEntries != 20 {
		t.Fatalf("even Analyze = %+v", rep)
	}
	// One node holds everything: max/mean = n, Gini = (n-1)/n.
	rep = Analyze(loadsOf(0, 0, 0, 12), 2)
	if rep.MaxMean != 4 || math.Abs(rep.Gini-0.75) > 1e-12 {
		t.Fatalf("concentrated Analyze = %+v", rep)
	}
	if len(rep.Hotspots) != 2 || rep.Hotspots[0].Addr != "n03" || rep.Hotspots[0].Entries != 12 {
		t.Fatalf("Hotspots = %v", rep.Hotspots)
	}
	// Known Gini for {1,2,3,4}: 2·(1·1+2·2+3·3+4·4)/(4·10) − 5/4 = 0.25.
	rep = Analyze(loadsOf(4, 2, 1, 3), 1)
	if math.Abs(rep.Gini-0.25) > 1e-12 {
		t.Fatalf("Gini{1..4} = %v, want 0.25", rep.Gini)
	}
	if rep.Hotspots[0].Entries != 4 {
		t.Fatalf("Hotspots = %v", rep.Hotspots)
	}
	// topK larger than n clamps.
	if rep := Analyze(loadsOf(1, 2), 10); len(rep.Hotspots) != 2 {
		t.Fatalf("clamped Hotspots = %v", rep.Hotspots)
	}
}

// skewedRing builds a chord ring and piles extra entries into one node's
// key interval, spread over many key-groups so migration can split it.
func skewedRing(t *testing.T, nNodes, baseline, pileup int) *chord.Ring {
	t.Helper()
	r := chord.New(chord.Config{Bits: 20})
	addrs := make([]string, nNodes)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("node-%04d", i)
	}
	if err := r.AddBulk(addrs); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	nodes := r.Nodes()
	for i := 0; i < baseline; i++ {
		key := rng.Uint64() & (r.Space().Size() - 1)
		e := directory.Entry{Key: key, Info: resource.Info{Attr: "a", Value: float64(i), Owner: "o"}}
		if _, err := r.Insert(nodes[0], key, e); err != nil {
			t.Fatal(err)
		}
	}
	// Pile entries into node[4]'s interval: keys spread uniformly between
	// its predecessor's ID (exclusive) and its own ID (inclusive).
	hot := nodes[4]
	pred := nodes[3]
	gap := r.Space().Clockwise(pred.ID, hot.ID)
	for i := 0; i < pileup; i++ {
		key := r.Space().Add(pred.ID, 1+rng.Uint64()%gap)
		e := directory.Entry{Key: key, Info: resource.Info{Attr: "a", Value: float64(i), Owner: "h"}}
		if _, err := r.Insert(nodes[0], key, e); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// ringLoads samples every holder's directory size in ring order.
func ringLoads(p replication.Placement) []discovery.NodeLoad {
	ring := p.HolderRing()
	out := make([]discovery.NodeLoad, len(ring))
	for i, h := range ring {
		out[i] = discovery.NodeLoad{Addr: h.Addr, Entries: h.Dir.Len()}
	}
	return out
}

func chordTotal(r *chord.Ring) int {
	total := 0
	for _, sz := range r.DirectorySizes() {
		total += sz
	}
	return total
}

func TestRebalanceOnChordReducesImbalance(t *testing.T) {
	r := skewedRing(t, 16, 160, 400)
	before := Analyze(ringLoads(r.Placement()), 3)
	if before.MaxMean < 2 {
		t.Fatalf("setup not skewed enough: %+v", before)
	}
	total := chordTotal(r)
	stats := Rebalance(r)
	if stats.Passes != 1 || stats.Migrations == 0 || stats.EntriesMoved == 0 {
		t.Fatalf("stats = %+v, want at least one migration", stats)
	}
	after := Analyze(ringLoads(r.Placement()), 3)
	if after.MaxMean >= before.MaxMean {
		t.Fatalf("max/mean did not improve: %.3f -> %.3f", before.MaxMean, after.MaxMean)
	}
	if after.Gini >= before.Gini {
		t.Fatalf("Gini did not improve: %.3f -> %.3f", before.Gini, after.Gini)
	}
	if got := chordTotal(r); got != total {
		t.Fatalf("entries not conserved: %d -> %d", total, got)
	}
	// Every entry still sits on its oracle owner.
	for _, n := range r.Nodes() {
		for _, e := range n.Dir.Snapshot() {
			owner, _ := r.OwnerOf(e.Key)
			if owner != n {
				t.Fatalf("entry key %d on %s, oracle owner %s", e.Key, n.Addr, owner.Addr)
			}
		}
	}
	// Lookups still resolve after the moves.
	rng := rand.New(rand.NewSource(78))
	nodes := r.Nodes()
	for i := 0; i < 200; i++ {
		key := rng.Uint64() & (r.Space().Size() - 1)
		route, err := r.Lookup(nodes[rng.Intn(len(nodes))], key)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := r.OwnerOf(key)
		if route.Root != want {
			t.Fatalf("post-rebalance Lookup(%d) mismatch", key)
		}
	}
}

// A single-key pileup (the SWORD attribute-pool shape) is indivisible: the
// planner must report it blocked, move nothing, and terminate.
func TestRebalanceSingleKeyPoolBlocked(t *testing.T) {
	r := chord.New(chord.Config{Bits: 20})
	addrs := make([]string, 10)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("node-%04d", i)
	}
	if err := r.AddBulk(addrs); err != nil {
		t.Fatal(err)
	}
	nodes := r.Nodes()
	key := nodes[5].ID // pool lands exactly on node 5
	for i := 0; i < 100; i++ {
		e := directory.Entry{Key: key, Info: resource.Info{Attr: "cpu", Value: float64(i), Owner: "o"}}
		if _, err := r.Insert(nodes[0], key, e); err != nil {
			t.Fatal(err)
		}
	}
	stats := Rebalance(r)
	if stats.Migrations != 0 || stats.EntriesMoved != 0 {
		t.Fatalf("indivisible pool migrated: %+v", stats)
	}
	if stats.Blocked == 0 {
		t.Fatalf("pool not reported blocked: %+v", stats)
	}
	if got := nodes[5].Dir.Len(); got != 100 {
		t.Fatalf("pool moved off its node: %d entries left", got)
	}
}

func TestRebalanceOnCycloidReducesImbalance(t *testing.T) {
	o := cycloid.MustNew(cycloid.Config{D: 6}) // capacity 384
	addrs := make([]string, 24)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("node-%04d", i)
	}
	if err := o.AddBulk(addrs); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(79))
	nodes := o.Nodes()
	for i := 0; i < 150; i++ {
		key := o.IDOf(rng.Uint64() % o.Capacity())
		e := directory.Entry{Key: o.Pos(key), Info: resource.Info{Attr: "a", Value: float64(i), Owner: "o"}}
		if _, err := o.Insert(nodes[0], key, e); err != nil {
			t.Fatal(err)
		}
	}
	// Pile into node[7]'s interval.
	hot := nodes[7]
	pred := nodes[6]
	gap := (hot.Pos + o.Capacity() - pred.Pos) % o.Capacity()
	if gap < 2 {
		t.Skip("nodes adjacent; no splittable interval")
	}
	for i := 0; i < 300; i++ {
		pos := (pred.Pos + 1 + rng.Uint64()%gap) % o.Capacity()
		e := directory.Entry{Key: pos, Info: resource.Info{Attr: "a", Value: float64(i), Owner: "h"}}
		if _, err := o.Insert(nodes[0], o.IDOf(pos), e); err != nil {
			t.Fatal(err)
		}
	}
	before := Analyze(ringLoads(o.Placement()), 3)
	stats := Rebalance(o)
	if stats.Migrations == 0 {
		t.Fatalf("no migrations: %+v (before %+v)", stats, before)
	}
	after := Analyze(ringLoads(o.Placement()), 3)
	if after.MaxMean >= before.MaxMean {
		t.Fatalf("max/mean did not improve: %.3f -> %.3f", before.MaxMean, after.MaxMean)
	}
	total := 0
	for _, sz := range o.DirectorySizes() {
		total += sz
	}
	if total != 450 {
		t.Fatalf("entries not conserved: %d", total)
	}
	for _, n := range o.Nodes() {
		for _, e := range n.Dir.Snapshot() {
			owner, _ := o.OwnerOf(o.IDOf(e.Key))
			if owner != n {
				t.Fatalf("entry key %d on %s, oracle owner %s", e.Key, n.Addr, owner.Addr)
			}
		}
	}
}

// On a complete cycloid overlay there is no free identifier anywhere, so
// every hotspot is structurally blocked.
func TestRebalanceCompleteCycloidBlocked(t *testing.T) {
	o := cycloid.MustNew(cycloid.Config{D: 4}) // 64 nodes, complete
	if err := o.AddComplete(); err != nil {
		t.Fatal(err)
	}
	nodes := o.Nodes()
	for i := 0; i < 64; i++ {
		e := directory.Entry{Key: nodes[3].Pos, Info: resource.Info{Attr: "a", Value: float64(i), Owner: "o"}}
		if _, err := o.Insert(nodes[0], nodes[3].ID, e); err != nil {
			t.Fatal(err)
		}
	}
	stats := Rebalance(o)
	if stats.Migrations != 0 || stats.Blocked == 0 {
		t.Fatalf("complete overlay rebalance = %+v, want blocked only", stats)
	}
}
