package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// Two runs of one seed must count the same hops and visits: counts are the
// one kind of metric a later change may be judged on from a single run.
func TestWalkCountsRepeatForASeed(t *testing.T) {
	w := findWorkload("walk_inproc")
	var runs []*result
	for i := 0; i < 2; i++ {
		res, err := runEndToEnd(quick, w, 11, 0.5, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 {
			t.Fatalf("run %d: %d of %d failed: %s", i, res.Failed, res.Attempted, res.FirstErr)
		}
		runs = append(runs, res)
	}
	for _, name := range []string{"hops_per_query", "visited_per_query"} {
		a, b := runs[0].Metrics[name].Value, runs[1].Metrics[name].Value
		if a != b || a == 0 {
			t.Errorf("%s: %v then %v for one seed", name, a, b)
		}
	}
	if runs[0].OpListSHA != runs[1].OpListSHA {
		t.Errorf("op lists differ: %s, %s", runs[0].OpListSHA, runs[1].OpListSHA)
	}
	if calls := runs[0].Notes["transport_calls"]; calls != 0.0 {
		t.Errorf("walk_inproc made %v transport calls, want none", calls)
	}
	for _, m := range endToEnd {
		if v, ok := runs[0].Metrics[m.name]; !ok || v.Value <= 0 {
			t.Errorf("%s = %v, want every end-to-end metric reported and positive", m.name, v.Value)
		}
	}
}

// Every TCP workload, end to end at test scale: no op may fail, and every
// end-to-end metric must come out positive.
func TestTCPWorkloadsRunClean(t *testing.T) {
	for _, name := range []string{"point_tcp", "range_mix_tcp", "wan_tcp"} {
		res, err := runEndToEnd(quick, findWorkload(name), 3, 0.25, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 {
			t.Errorf("%s: %d of %d failed: %s", name, res.Failed, res.Attempted, res.FirstErr)
		}
		for _, m := range endToEnd {
			if v := res.Metrics[m.name]; v.Value <= 0 {
				t.Errorf("%s: %s = %v, want positive", name, m.name, v.Value)
			}
		}
	}
}

// The replay gateway's response frames must be byte for byte the size of the
// real gateway's for the same op list, batch frames and announces included:
// only then is a round trip through it the transport's share of the real one.
func TestReplayFramesMatchRealGateway(t *testing.T) {
	for _, name := range []string{"point_tcp", "range_mix_tcp"} {
		w := findWorkload(name)
		pl := makePlan(w, quick.gen, 1, 5, 0.5)
		l := newLadder(quick, w, pl, newRecorder())
		if len(l.ops) == 0 {
			t.Fatalf("%s: empty ladder", name)
		}
		if err := l.realGateway(); err != nil {
			t.Fatal(err)
		}
		if err := l.inProcess(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := l.replayGateway(); err != nil {
			t.Fatal(err)
		}
		// The rung itself compares its response bytes with the real
		// gateway's and files a failure when they differ.
		if l.failures != 0 {
			t.Errorf("%s: %d ladder failures: %v", name, l.failures, l.firstErr)
		}
		if l.deltas["transport_bytes_written_total"] == 0 {
			t.Errorf("%s: the real gateway's response bytes were not counted", name)
		}
	}
}

// The traced pass must report every per-layer metric and leave a trace in
// which every span is a root or names a parent that exists.
func TestTracedPassReportsEveryLayerAndWellFormedSpans(t *testing.T) {
	dir := t.TempDir()
	res, err := runTraced(quick, findWorkload("range_mix_tcp"), 9, 0.5, dir, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Errorf("%d of %d failed: %s", res.Failed, res.Attempted, res.FirstErr)
	}
	for _, m := range perLayer {
		if _, ok := res.Metrics[m.name]; !ok {
			t.Errorf("%s not reported", m.name)
		}
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d metrics reported, spec has %d", len(res.Metrics), len(perLayer))
	}
	f, err := os.Open(filepath.Join(dir, "trace_range_mix_tcp.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	ids := map[int]bool{}
	layers := map[string]bool{}
	for _, s := range spans {
		ids[s.ID] = true
		layers[s.Layer] = true
	}
	for _, s := range spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Fatalf("span %d names parent %d, which is not in the trace", s.ID, s.Parent)
		}
		if s.End < s.Start {
			t.Fatalf("span %d ends before it starts", s.ID)
		}
	}
	for _, layer := range []string{"transport", "core", "cycloid", "directory", "routing", "driver"} {
		if !layers[layer] {
			t.Errorf("no span from layer %s", layer)
		}
	}
}

func TestSelfTimeIsDurationLessChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 200, End: 230}, // substitutions run one after another
		{ID: 3, Parent: 1, Start: 300, End: 350},
		{ID: 4, Parent: 3, Start: 400, End: 410},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 20, 2: 30, 3: 40, 4: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}
