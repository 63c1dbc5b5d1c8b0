package main

import (
	"testing"

	"lorm/internal/experiments"
)

var quick = newScale(experiments.Quick())

func TestSameSeedSameOpList(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		nsys := 1
		if w.allSystems {
			nsys = 5
		}
		a := makePlan(w, quick.gen, nsys, 7, 1)
		b := makePlan(w, quick.gen, nsys, 7, 1)
		c := makePlan(w, quick.gen, nsys, 8, 1)
		if a.sha != b.sha {
			t.Errorf("%s: seed 7 gave op lists %s and %s", w.name, a.sha, b.sha)
		}
		if a.sha == c.sha {
			t.Errorf("%s: seeds 7 and 8 gave the same op list", w.name)
		}
		if len(a.ops) == 0 || len(a.closed) == 0 {
			t.Errorf("%s: empty plan", w.name)
		}
	}
}

func TestAnnounceOwnersAreUnique(t *testing.T) {
	pl := makePlan(findWorkload("range_mix_tcp"), quick.gen, 1, 1, 1)
	owners := map[string]bool{}
	for i := range pl.ops {
		if o := &pl.ops[i]; !o.isDiscover() {
			if owners[o.info.Owner] {
				t.Fatalf("owner %s announced twice", o.info.Owner)
			}
			owners[o.info.Owner] = true
		}
	}
	if len(owners) == 0 {
		t.Fatal("no announces in a workload that mixes them in")
	}
}
