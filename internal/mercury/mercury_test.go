package mercury

import (
	"fmt"
	"testing"

	"lorm/internal/resource"
	"lorm/internal/workload"
)

func testSchema() *resource.Schema {
	return resource.MustSchema(
		resource.Attribute{Name: "cpu", Min: 100, Max: 3200},
		resource.Attribute{Name: "mem", Min: 0, Max: 8192},
		resource.Attribute{Name: "disk", Min: 1, Max: 2000},
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

func TestOneHubPerAttribute(t *testing.T) {
	s := build(t, 40)
	for _, a := range testSchema().Attributes() {
		hub, ok := s.Hub(a.Name)
		if !ok || hub == nil {
			t.Fatalf("no hub for %s", a.Name)
		}
		if hub.Size() != 40 {
			t.Fatalf("hub %s has %d nodes, want 40", a.Name, hub.Size())
		}
	}
	if _, ok := s.Hub("gpu"); ok {
		t.Fatal("Hub for unknown attribute should miss")
	}
}

// Mercury's defining property: information of one attribute spreads over
// its hub by value, rather than pooling on one node.
func TestValueSpreading(t *testing.T) {
	s := build(t, 64)
	gen := workload.NewGenerator(testSchema(), 1.5)
	rng := workload.Split(41, 0)
	a, _ := testSchema().Lookup("cpu")
	for i := 0; i < 200; i++ {
		v := gen.UniformValue(rng, a) // uniform so spread is visible
		in := resource.Info{Attr: "cpu", Value: v, Owner: fmt.Sprintf("o%03d", i)}
		if _, err := s.Register(in); err != nil {
			t.Fatal(err)
		}
	}
	hub, _ := s.Hub("cpu")
	holders := 0
	for _, n := range hub.Nodes() {
		if n.Dir.Len() > 0 {
			holders++
		}
	}
	if holders < 20 {
		t.Fatalf("only %d hub nodes hold cpu pieces; Mercury should spread by value", holders)
	}
}

// Hub identifiers must differ across hubs for the same physical address —
// otherwise all hubs would be the same ring.
func TestHubsHaveIndependentIDs(t *testing.T) {
	s := build(t, 16)
	cpuHub, _ := s.Hub("cpu")
	memHub, _ := s.Hub("mem")
	same := 0
	for _, n := range cpuHub.Nodes() {
		m, ok := memHub.NodeByAddr(n.Addr)
		if !ok {
			t.Fatalf("address %s missing from mem hub", n.Addr)
		}
		if m.ID == n.ID {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("%d/16 addresses share IDs across hubs; hubs must be independent", same)
	}
}

// A physical node's outlinks are the union of its per-hub tables: with m
// hubs they grow like m·log n (Theorem 4.1).
func TestOutlinksScaleWithHubCount(t *testing.T) {
	s := build(t, 64)
	counts := s.OutlinkCounts()
	if len(counts) != 64 {
		t.Fatalf("got %d counts, want 64", len(counts))
	}
	var sum float64
	for _, c := range counts {
		sum += float64(c)
	}
	avg := sum / 64
	// 3 hubs × (≈ log2 64 + successor list) ≈ 3 × 8-ish. Expect well above
	// a single ring's count and roughly 3× it.
	if avg < 15 || avg > 45 {
		t.Fatalf("avg outlinks = %.1f, want ≈ 3 hubs × one-ring count", avg)
	}
}

func TestRegisterUnknownAttribute(t *testing.T) {
	s := build(t, 8)
	if _, err := s.Register(resource.Info{Attr: "gpu", Value: 1, Owner: "x"}); err == nil {
		t.Fatal("unknown attribute should error")
	}
}

func TestDuplicateAddressRejected(t *testing.T) {
	s := build(t, 8)
	if err := s.AddNodes([]string{"node-0001"}); err == nil {
		t.Fatal("duplicate bulk address should error")
	}
	if err := s.AddNodes([]string{"fresh", "fresh"}); err == nil {
		t.Fatal("address repeated within one bulk call should error")
	}
}

func TestDirectorySizesAggregateAcrossHubs(t *testing.T) {
	s := build(t, 32)
	gen := workload.NewGenerator(testSchema(), 1.5)
	rng := workload.Split(42, 0)
	infos := gen.Announcements(rng, 25)
	for _, in := range infos {
		if _, err := s.Register(in); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for _, sz := range s.DirectorySizes() {
		total += sz
	}
	if total != len(infos) {
		t.Fatalf("aggregated %d pieces, want %d", total, len(infos))
	}
}

func TestDynamics(t *testing.T) {
	s := build(t, 20)
	if s.Name() != "mercury" || s.NodeCount() != 20 {
		t.Fatal("metadata wrong")
	}
	if err := s.AddNode("newbie"); err != nil {
		t.Fatal(err)
	}
	if s.NodeCount() != 21 {
		t.Fatalf("NodeCount = %d after join", s.NodeCount())
	}
	for _, a := range testSchema().Attributes() {
		hub, _ := s.Hub(a.Name)
		if hub.Size() != 21 {
			t.Fatalf("hub %s size = %d after join, want 21", a.Name, hub.Size())
		}
	}
	if err := s.RemoveNode("newbie"); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveNode("ghost"); err == nil {
		t.Fatal("removing unknown node should error")
	}
	s.Maintain()
	addrs := s.NodeAddrs()
	if len(addrs) != 20 {
		t.Fatalf("NodeAddrs = %d, want 20", len(addrs))
	}
	for i := 1; i < len(addrs); i++ {
		if addrs[i-1] >= addrs[i] {
			t.Fatal("NodeAddrs not sorted")
		}
	}
}

// Range queries walk the attribute's hub: visited counts scale with the
// covered mass fraction times hub size.
func TestRangeWalkScalesWithHubSize(t *testing.T) {
	s := build(t, 64)
	gen := workload.NewGenerator(testSchema(), 1.5)
	rng := workload.Split(43, 0)
	a, _ := testSchema().Lookup("cpu")
	for i := 0; i < 50; i++ {
		in := resource.Info{Attr: "cpu", Value: gen.UniformValue(rng, a), Owner: fmt.Sprintf("o%d", i)}
		if _, err := s.Register(in); err != nil {
			t.Fatal(err)
		}
	}
	// Full-domain range: must walk the whole hub ring (64 visited).
	res, err := s.Discover(resource.Query{
		Subs:      []resource.SubQuery{{Attr: "cpu", Low: a.Min, High: a.Max}},
		Requester: "r",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.Visited != 64 {
		t.Fatalf("full-domain range visited %d nodes, want all 64", res.Cost.Visited)
	}
	if len(res.PerAttr["cpu"]) != 50 {
		t.Fatalf("full-domain range found %d pieces, want 50", len(res.PerAttr["cpu"]))
	}
	// Exact query: one visited node.
	res, err = s.Discover(resource.Query{
		Subs:      []resource.SubQuery{{Attr: "cpu", Low: 1000, High: 1000}},
		Requester: "r",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.Visited != 1 {
		t.Fatalf("exact query visited %d nodes, want 1", res.Cost.Visited)
	}
}

func TestDiscoverValidates(t *testing.T) {
	s := build(t, 8)
	if _, err := s.Discover(resource.Query{}); err == nil {
		t.Fatal("empty query should error")
	}
	q := resource.Query{Subs: []resource.SubQuery{{Attr: "gpu", Low: 1, High: 2}}}
	if _, err := s.Discover(q); err == nil {
		t.Fatal("unknown attribute should error")
	}
}

func TestSchemaAccessor(t *testing.T) {
	s := build(t, 8)
	if s.Schema().Len() != 3 {
		t.Fatalf("Schema len = %d", s.Schema().Len())
	}
}

func TestMaintainAfterChurn(t *testing.T) {
	s := build(t, 24)
	for i := 0; i < 5; i++ {
		if err := s.AddNode(fmt.Sprintf("j%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	addrs := s.NodeAddrs()
	for i := 0; i < 5; i++ {
		if err := s.RemoveNode(addrs[i*3]); err != nil {
			t.Fatal(err)
		}
	}
	s.Maintain()
	// Hubs consistent afterwards: every hub same size.
	for _, a := range testSchema().Attributes() {
		hub, _ := s.Hub(a.Name)
		if hub.Size() != s.NodeCount() {
			t.Fatalf("hub %s size %d != NodeCount %d", a.Name, hub.Size(), s.NodeCount())
		}
	}
}
