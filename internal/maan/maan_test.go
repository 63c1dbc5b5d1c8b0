package maan

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

// MAAN's defining property: dual registration. Every piece is stored twice
// — once under the attribute index, once under the value index.
func TestDualRegistration(t *testing.T) {
	s := build(t, 64)
	gen := workload.NewGenerator(testSchema(), 1.5)
	rng := workload.Split(31, 0)
	a, _ := testSchema().Lookup("cpu")
	const pieces = 50
	for i := 0; i < pieces; i++ {
		in := resource.Info{Attr: "cpu", Value: gen.Value(rng, a), Owner: fmt.Sprintf("o%02d", i)}
		if _, err := s.Register(in); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for _, sz := range s.DirectorySizes() {
		total += sz
	}
	if total != 2*pieces {
		t.Fatalf("stored %d entries, want %d (dual registration)", total, 2*pieces)
	}
	// The attribute root pools one full copy.
	root, err := s.ring.OwnerOf(s.attrKey("cpu"))
	if err != nil {
		t.Fatal(err)
	}
	if got := root.Dir.CountAttr("cpu"); got < pieces {
		t.Fatalf("attribute root holds %d pieces, want ≥ %d", got, pieces)
	}
}

// Exact queries visit two nodes per attribute (attribute root and value
// root) — the factor-of-two of Theorem 4.8.
func TestExactQueryVisitsTwoNodes(t *testing.T) {
	s := build(t, 64)
	gen := workload.NewGenerator(testSchema(), 1.5)
	rng := workload.Split(32, 0)
	for _, in := range gen.Announcements(rng, 30) {
		if _, err := s.Register(in); err != nil {
			t.Fatal(err)
		}
	}
	qrng := workload.Split(32, 1)
	for i := 0; i < 20; i++ {
		q := gen.ExactQuery(qrng, 2, fmt.Sprintf("r%d", i))
		res, err := s.Discover(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost.Visited != 4 {
			t.Fatalf("visited %d nodes for a 2-attribute exact query, want 4", res.Cost.Visited)
		}
	}
}

// Results must not contain duplicates even though both indices can surface
// the same piece.
func TestNoDuplicateMatches(t *testing.T) {
	s := build(t, 32)
	in := resource.Info{Attr: "cpu", Value: 1600, Owner: "solo"}
	if _, err := s.Register(in); err != nil {
		t.Fatal(err)
	}
	res, err := s.Discover(resource.Query{
		Subs:      []resource.SubQuery{{Attr: "cpu", Low: 100, High: 3200}},
		Requester: "r",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerAttr["cpu"]) != 1 {
		t.Fatalf("matches = %v, want exactly one", res.PerAttr["cpu"])
	}
	if len(res.Owners) != 1 || res.Owners[0] != "solo" {
		t.Fatalf("Owners = %v", res.Owners)
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
