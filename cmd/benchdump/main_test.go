package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: lorm/internal/directory
BenchmarkDirMatch/100-8     18106612        61.48 ns/op       0 B/op       0 allocs/op
BenchmarkDirMatch/10k-8      5170892       229.6 ns/op        0 B/op       0 allocs/op
BenchmarkDirAdd-8             493651      8291 ns/op       6099 B/op       0 allocs/op
BenchmarkFigX-8                    3      1000 ns/op          4.5 lorm-hops
PASS
ok      lorm/internal/directory 18.351s
`
	results, err := parseBenchOutput(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("parsed %d results, want 4", len(results))
	}
	if results[0].Name != "BenchmarkDirMatch/100-8" || results[0].NsPerOp != 61.48 {
		t.Fatalf("first result wrong: %+v", results[0])
	}
	if results[2].BytesPerOp != 6099 || results[2].AllocsPerOp != 0 {
		t.Fatalf("memory columns wrong: %+v", results[2])
	}
	if results[3].Extra["lorm-hops"] != 4.5 {
		t.Fatalf("custom metric not captured: %+v", results[3])
	}
}

func TestCheckFilesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	dd := &DirectoryDump{
		GeneratedBy: "benchdump",
		Benchmarks: []BenchResult{
			{Name: "BenchmarkDirMatch/100-8", Iterations: 1, NsPerOp: 61},
			{Name: "BenchmarkDirMatch/10k-8", Iterations: 1, NsPerOp: 230},
			{Name: "BenchmarkDirMatch/1M-8", Iterations: 1, NsPerOp: 11646},
			{Name: "BenchmarkDirAdd-8", Iterations: 1, NsPerOp: 8291},
			{Name: "BenchmarkDirTakeRange-8", Iterations: 1, NsPerOp: 741162},
		},
	}
	fd := &FiguresDump{
		GeneratedBy: "benchdump",
		Preset:      "quick",
		Figures: []FigureResult{
			{Figure: "fig3a", Metrics: map[string]float64{"lorm-outlinks": 7}},
			{Figure: "fig3b", Metrics: map[string]float64{"lorm-avg-dir": 1}},
			{Figure: "fig4a", Metrics: map[string]float64{"lorm-hops-1attr": 3}},
			{Figure: "fig5a", Metrics: map[string]float64{"lorm-total-visited": 9}},
			{Figure: "fig6a", Metrics: map[string]float64{"lorm-churn-hops": 4}},
			{Figure: "load", Metrics: map[string]float64{"sword-load-factor": 25}},
		},
	}
	cb := validClusterBaseline()
	dj := filepath.Join(dir, "BENCH_directory.json")
	fj := filepath.Join(dir, "BENCH_figures.json")
	cj := filepath.Join(dir, "BENCH_cluster.json")
	aj := filepath.Join(dir, "results_art.txt")
	if err := writeJSON(dj, dd); err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(fj, fd); err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(cj, cb); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(aj, []byte(validARTSweep), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkFiles(dj, fj, cj, aj); err != nil {
		t.Fatalf("round-trip check failed: %v", err)
	}

	// A truncated benchmark list must fail the check.
	dd.Benchmarks = dd.Benchmarks[:2]
	if err := writeJSON(dj, dd); err != nil {
		t.Fatal(err)
	}
	if err := checkFiles(dj, fj, cj, aj); err == nil {
		t.Fatal("check passed with missing benchmarks")
	}
}

// validARTSweep is a minimal results_art.txt in the lormsim text format
// that satisfies checkARTResults: sizes strictly increasing, every hop
// column positive, and the art column sub-logarithmic against the rest.
const validARTSweep = `== ART scaling: average hops per exact query vs network size ==
   analysis_chord = log2(n)/2, the Chord lookup reference
  n    lorm  mercury  sword   maan    art  analysis_chord
128   4.980    4.350  4.310  8.780  2.200           3.500
256   6.980    4.710  4.920  9.600  2.400               4
512  10.200    5.210  5.490  10.650 2.630           4.500
`

func TestCheckARTResultsRejects(t *testing.T) {
	dir := t.TempDir()
	write := func(content string) string {
		path := filepath.Join(dir, "results_art.txt")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	if err := checkARTResults(write(validARTSweep)); err != nil {
		t.Fatalf("valid sweep rejected: %v", err)
	}
	cases := []struct {
		name    string
		content string
	}{
		{"missing header", "== title ==\n1 2 3\n"},
		{"one row", "  n  lorm  mercury  sword  maan  art  analysis_chord\n128 4 4 4 8 2 3.5\n"},
		{"sizes not increasing", "  n  lorm  mercury  sword  maan  art  analysis_chord\n256 4 4 4 8 2 4\n128 5 5 5 9 2.2 3.5\n"},
		{"zero hop cell", "  n  lorm  mercury  sword  maan  art  analysis_chord\n128 4 4 4 8 0 3.5\n256 5 5 5 9 2.2 4\n"},
		{"art not sub-log", "  n  lorm  mercury  sword  maan  art  analysis_chord\n128 4 4 4 8 2 3.5\n256 5 5 5 9 6 4\n"},
		{"missing art column", "  n  lorm  mercury  sword  maan  analysis_chord\n128 4 4 4 8 3.5\n256 5 5 5 9 4\n"},
	}
	for _, tc := range cases {
		if err := checkARTResults(write(tc.content)); err == nil {
			t.Errorf("%s: checkARTResults accepted the file", tc.name)
		}
	}
}

// validClusterBaseline builds a clusterBaseline that passes checkCluster.
func validClusterBaseline() *clusterBaseline {
	cb := &clusterBaseline{Ops: map[string]struct {
		Count    int     `json:"count"`
		Failures int     `json:"failures"`
		P50us    float64 `json:"p50_us"`
		P99us    float64 `json:"p99_us"`
		P999us   float64 `json:"p999_us"`
	}{
		"announce": {Count: 100, P50us: 1000, P99us: 2000, P999us: 3000},
		"query":    {Count: 200, P50us: 1500, P99us: 2500, P999us: 3500},
	}}
	cb.Params.Nodes = 4
	cb.Params.Clients = 8
	cb.Comparison = &struct {
		Callers int     `json:"callers"`
		Speedup float64 `json:"speedup"`
	}{Callers: 8, Speedup: 4.5}
	return cb
}

func TestCheckClusterRejects(t *testing.T) {
	dir := t.TempDir()
	write := func(mutate func(*clusterBaseline)) string {
		cb := validClusterBaseline()
		mutate(cb)
		path := filepath.Join(dir, "BENCH_cluster.json")
		if err := writeJSON(path, cb); err != nil {
			t.Fatal(err)
		}
		return path
	}

	if err := checkCluster(write(func(cb *clusterBaseline) {})); err != nil {
		t.Fatalf("valid baseline rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*clusterBaseline)
	}{
		{"query failures", func(cb *clusterBaseline) {
			s := cb.Ops["query"]
			s.Failures = 3
			cb.Ops["query"] = s
		}},
		{"missing op", func(cb *clusterBaseline) { delete(cb.Ops, "announce") }},
		{"unordered quantiles", func(cb *clusterBaseline) {
			s := cb.Ops["announce"]
			s.P99us = s.P50us / 2
			cb.Ops["announce"] = s
		}},
		{"speedup below 2x", func(cb *clusterBaseline) { cb.Comparison.Speedup = 1.4 }},
		{"missing comparison", func(cb *clusterBaseline) { cb.Comparison = nil }},
		{"zero nodes", func(cb *clusterBaseline) { cb.Params.Nodes = 0 }},
	}
	for _, tc := range cases {
		if err := checkCluster(write(tc.mutate)); err == nil {
			t.Errorf("%s: checkCluster accepted the document", tc.name)
		}
	}
}
