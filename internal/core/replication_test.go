package core

import (
	"fmt"
	"testing"

	"lorm/internal/resource"
	"lorm/internal/workload"
)

func TestReplicationStoresCopies(t *testing.T) {
	s := buildLORM(t, 6, false, 64)
	if err := s.SetReplicas(3); err != nil {
		t.Fatal(err)
	}
	const pieces = 40
	gen := workload.NewGenerator(testSchema(), 1.5)
	rng := workload.Split(61, 0)
	for _, in := range gen.Announcements(rng, pieces/3+1)[:pieces] {
		if _, err := s.Register(in); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for _, sz := range s.DirectorySizes() {
		total += sz
	}
	if total != 3*pieces {
		t.Fatalf("stored %d copies, want %d (3 replicas × %d pieces)", total, 3*pieces, pieces)
	}
}

// Queries must not return duplicate matches despite the extra copies.
func TestReplicationQueriesDeduplicate(t *testing.T) {
	s := buildLORM(t, 6, true, 0)
	if err := s.SetReplicas(3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register(resource.Info{Attr: "cpu", Value: 1600, Owner: "solo"}); err != nil {
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
		t.Fatalf("matches = %v, want exactly one despite replication", res.PerAttr["cpu"])
	}
}

// The headline property: with r=2, an abrupt crash loses nothing the
// queries can observe after Maintain (stabilize + repair).
func TestCrashWithReplicationLosesNothing(t *testing.T) {
	s := buildLORM(t, 6, false, 80)
	if err := s.SetReplicas(2); err != nil {
		t.Fatal(err)
	}
	const pieces = 60
	gen := workload.NewGenerator(testSchema(), 1.5)
	rng := workload.Split(62, 0)
	for _, in := range gen.Announcements(rng, pieces/3)[:pieces] {
		if _, err := s.Register(in); err != nil {
			t.Fatal(err)
		}
	}
	// Crash 10 nodes, repairing between crashes (the invariant tolerates
	// < r consecutive losses per repair interval).
	for i := 0; i < 10; i++ {
		addrs := s.NodeAddrs()
		victim := addrs[(i*31)%len(addrs)]
		if _, err := s.FailNode(victim); err != nil {
			t.Fatal(err)
		}
		s.Maintain()
	}
	// Full-domain queries per attribute must still see every piece.
	found := 0
	for _, a := range testSchema().Attributes() {
		res, err := s.Discover(resource.Query{
			Subs:      []resource.SubQuery{{Attr: a.Name, Low: a.Min, High: a.Max}},
			Requester: "verifier",
		})
		if err != nil {
			t.Fatal(err)
		}
		found += len(res.PerAttr[a.Name])
	}
	if found != pieces {
		t.Fatalf("after crashes queries see %d pieces, want %d", found, pieces)
	}
}

// Control: without replication the same crash schedule DOES lose entries —
// the extension is doing real work.
func TestCrashWithoutReplicationLosesEntries(t *testing.T) {
	s := buildLORM(t, 6, false, 80)
	const pieces = 60
	gen := workload.NewGenerator(testSchema(), 1.5)
	rng := workload.Split(62, 0) // same seed as the replicated test
	for _, in := range gen.Announcements(rng, pieces/3)[:pieces] {
		if _, err := s.Register(in); err != nil {
			t.Fatal(err)
		}
	}
	lost := 0
	for i := 0; i < 10; i++ {
		addrs := s.NodeAddrs()
		victim := addrs[(i*31)%len(addrs)]
		n, err := s.FailNode(victim)
		if err != nil {
			t.Fatal(err)
		}
		lost += n
		s.Maintain()
	}
	if lost == 0 {
		t.Skip("crash schedule happened to hit only empty nodes; no loss to demonstrate")
	}
	total := 0
	for _, sz := range s.DirectorySizes() {
		total += sz
	}
	if total != pieces-lost {
		t.Fatalf("stored %d, want %d after losing %d", total, pieces-lost, lost)
	}
}

func TestRepairIdempotent(t *testing.T) {
	s := buildLORM(t, 6, false, 40)
	if err := s.SetReplicas(2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		in := resource.Info{Attr: "cpu", Value: float64(200 + i*100), Owner: fmt.Sprintf("o%d", i)}
		if _, err := s.Register(in); err != nil {
			t.Fatal(err)
		}
	}
	if a, r := s.Repair(); a != 0 || r != 0 {
		t.Fatalf("repair on a clean system changed state: +%d -%d", a, r)
	}
	// Raising the factor and repairing adds exactly one copy per piece.
	if err := s.SetReplicas(3); err != nil {
		t.Fatal(err)
	}
	if a, r := s.Repair(); a != 20 || r != 0 {
		t.Fatalf("repair after raising factor: +%d -%d, want +20 -0", a, r)
	}
	if a, r := s.Repair(); a != 0 || r != 0 {
		t.Fatalf("second repair not idempotent: +%d -%d", a, r)
	}
	// Lowering it and repairing removes the surplus.
	if err := s.SetReplicas(2); err != nil {
		t.Fatal(err)
	}
	if a, r := s.Repair(); a != 0 || r != 20 {
		t.Fatalf("repair after lowering factor: +%d -%d, want +0 -20", a, r)
	}
}
