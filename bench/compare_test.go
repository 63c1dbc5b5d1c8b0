package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricSpec{name: "latency", better: "lower", bound: 0.1}
	higher := metricSpec{name: "rate", better: "higher", bound: 0.1}
	count := metricSpec{name: "hops", better: "lower", bound: 0.02, exact: true}
	steady := []float64{100, 101, 99, 100}
	for _, tc := range []struct {
		name    string
		m       metricSpec
		a, b    []float64
		sameOps bool
		want    string
	}{
		{"within the bound", lower, steady, []float64{105, 104, 106, 105}, true, verdictSame},
		{"worse beyond the bound", lower, steady, []float64{120, 121, 119, 120}, true, verdictRegressed},
		{"better beyond the bound", lower, steady, []float64{80, 81, 79, 80}, true, verdictImproved},
		{"higher is better", higher, steady, []float64{80, 81, 79, 80}, true, verdictRegressed},
		{"spread wider than the bound", lower, []float64{80, 100, 120, 140}, []float64{100, 101, 99, 100}, true, verdictUnresolved},
		{"a count repeats", count, []float64{17.5}, []float64{17.5}, true, verdictSame},
		{"a count moved at all", count, []float64{17.5}, []float64{17.5001}, true, verdictRegressed},
		{"a count fell", count, []float64{17.5}, []float64{17.4}, true, verdictImproved},
		{"a count under other seeds gets its bound", count, []float64{17.5}, []float64{17.6}, false, verdictSame},
	} {
		if _, got := judge(tc.m, tc.a, tc.b, tc.sameOps); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareReportsRowPerMetricAndWorkload(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, latency, seconds float64, commits ...string) string {
		var rep report
		for _, commit := range commits {
			rep.Runs = append(rep.Runs, &result{
				Workload: "point_tcp", Pass: "end_to_end", Seed: 1, Seconds: seconds, OpListSHA: "abc",
				Env: environment{Commit: commit},
				Metrics: map[string]value{
					"discover_p50_us": {Value: latency, Unit: "us"},
					"hops_per_query":  {Value: 17.5, Unit: "count"},
				},
			})
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, worse := write("a.json", 300, 20, "c1"), write("same.json", 310, 20, "c1"), write("worse.json", 400, 20, "c1")

	var out bytes.Buffer
	if err := compareReports(&out, a, same); err != nil {
		t.Errorf("a run within every bound: %v", err)
	}
	if got := strings.Count(out.String(), "  "+verdictSame+"\n"); got != 2 {
		t.Errorf("%d rows judged same, want 2:\n%s", got, out.String())
	}
	out.Reset()
	if err := compareReports(&out, a, worse); err == nil {
		t.Errorf("a regressed row must fail the comparison:\n%s", out.String())
	}
	if !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("no regressed row:\n%s", out.String())
	}

	// Runs sized for another -seconds sent another load: no verdict at all.
	out.Reset()
	if err := compareReports(&out, a, write("short.json", 300, 10, "c1")); err == nil {
		t.Errorf("runs at different -seconds were compared:\n%s", out.String())
	}
	// A report appended to across commits says so.
	out.Reset()
	if err := compareReports(&out, a, write("mixed.json", 300, 20, "c1", "c2")); err != nil {
		t.Error(err)
	}
	if !strings.Contains(out.String(), "MIXED: b holds runs from 2 environments") {
		t.Errorf("mixed environments not flagged:\n%s", out.String())
	}
}
