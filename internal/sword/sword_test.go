package sword

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

// SWORD's defining property: ALL information of one attribute pools on a
// single node — the attribute root.
func TestAttributePooling(t *testing.T) {
	s := build(t, 100)
	gen := workload.NewGenerator(testSchema(), 1.5)
	rng := workload.Split(21, 0)
	a, _ := testSchema().Lookup("cpu")
	for i := 0; i < 80; i++ {
		in := resource.Info{Attr: "cpu", Value: gen.Value(rng, a), Owner: fmt.Sprintf("o%02d", i)}
		if _, err := s.Register(in); err != nil {
			t.Fatal(err)
		}
	}
	root, err := s.ring.OwnerOf(s.attrKey("cpu"))
	if err != nil {
		t.Fatal(err)
	}
	if root.Dir.CountAttr("cpu") != 80 {
		t.Fatalf("attribute root holds %d cpu pieces, want all 80", root.Dir.CountAttr("cpu"))
	}
	nonZero := 0
	for _, sz := range s.DirectorySizes() {
		if sz > 0 {
			nonZero++
		}
	}
	if nonZero != 1 {
		t.Fatalf("%d nodes hold cpu information, want exactly 1", nonZero)
	}
}

// Range queries stop at the root: exactly one visited node per attribute.
func TestRangeQueryVisitsOneNodePerAttribute(t *testing.T) {
	s := build(t, 100)
	gen := workload.NewGenerator(testSchema(), 1.5)
	rng := workload.Split(22, 0)
	for _, in := range gen.Announcements(rng, 30) {
		if _, err := s.Register(in); err != nil {
			t.Fatal(err)
		}
	}
	qrng := workload.Split(22, 1)
	for i := 0; i < 20; i++ {
		q := gen.RangeQuery(qrng, 2, 0.5, fmt.Sprintf("r%d", i))
		res, err := s.Discover(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost.Visited != 2 {
			t.Fatalf("visited %d nodes for a 2-attribute range query, want 2", res.Cost.Visited)
		}
	}
}

func TestRegisterUnknownAttribute(t *testing.T) {
	s := build(t, 10)
	if _, err := s.Register(resource.Info{Attr: "gpu", Value: 1, Owner: "x"}); err == nil {
		t.Fatal("unknown attribute should error")
	}
}

func TestDiscoverValidates(t *testing.T) {
	s := build(t, 10)
	if _, err := s.Discover(resource.Query{}); err == nil {
		t.Fatal("empty query should error")
	}
}
