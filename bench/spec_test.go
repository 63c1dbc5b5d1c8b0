package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json at the repository root repeats this package's workload and
// metric lists for the acceptance driver; the two must not drift apart.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the spec", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := file.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), spec %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	check := func(kind string, got []metric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the spec", len(got), kind, len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, spec %+v", kind, i, g, m)
			}
			if bounded && (g.Bound == nil || *g.Bound != m.bound || m.bound <= 0 || m.bound > 0.25) {
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in the spec (limit 0.25)", m.name, g.Bound, m.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: a per-layer metric has no bound", m.name)
			}
		}
	}
	check("end-to-end", file.EndToEnd, endToEnd, true)
	check("per-layer", file.PerLayer, perLayer, false)
	if len(perLayer) != 84 || len(endToEnd) != 9 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want 9 and 84", len(endToEnd), len(perLayer))
	}
	if file.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d in BENCHMARK.json, %d in the spec", file.RunSeconds, runSeconds)
	}
}
