package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
)

// A comparison's verdict on one (metric, workload) row.
const (
	verdictSame       = "same"       // within the bound either way
	verdictImproved   = "improved"   // better by more than the bound
	verdictRegressed  = "regressed"  // worse by more than the bound
	verdictUnresolved = "unresolved" // not regressed, but the runs spread wider than the bound
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is what
// the acceptance driver computes spreads with. It needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median; 0 when there
// are too few values to have one.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// judge applies a metric's bound to two sets of runs, a the baseline.
// sameOps says both sets sent the same op lists, under which a count must
// repeat exactly.
func judge(m metricSpec, a, b []float64, sameOps bool) (change float64, verdict string) {
	ma, mb := median(a), median(b)
	worse := (mb - ma) / ma // positive when b is worse
	if m.better == "higher" {
		worse = -worse
	}
	switch {
	case m.exact && sameOps && worse == 0:
		return worse, verdictSame
	case m.exact && sameOps && worse < 0:
		return worse, verdictImproved
	case m.exact && sameOps, worse > m.bound:
		return worse, verdictRegressed
	case spread(a) > m.bound || spread(b) > m.bound:
		return worse, verdictUnresolved
	case worse < -m.bound:
		return worse, verdictImproved
	}
	return worse, verdictSame
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// runSet is one workload's timed runs in a report.
type runSet []*result

func (r *report) timed(workload string) runSet {
	var out runSet
	for _, run := range r.Runs {
		if run.Workload == workload && run.Pass == "end_to_end" {
			out = append(out, run)
		}
	}
	return out
}

// values collects one metric over the runs that report it.
func (rs runSet) values(metric string) []float64 {
	var out []float64
	for _, run := range rs {
		if v, ok := run.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// opLists returns the runs' op-list digests, sorted: two sets of runs sent
// the same requests exactly when these are equal.
func (rs runSet) opLists() []string {
	var out []string
	for _, run := range rs {
		out = append(out, run.OpListSHA)
	}
	sort.Strings(out)
	return out
}

// printEnvironments lists the distinct environments a report's runs were
// taken in. More than one means the file was appended to across commits,
// Go versions or boxes, and its medians mix them.
func printEnvironments(w io.Writer, label, path string, r *report) {
	count := map[environment]int{}
	var order []environment
	for _, run := range r.Runs {
		if count[run.Env] == 0 {
			order = append(order, run.Env)
		}
		count[run.Env]++
	}
	fmt.Fprintf(w, "%s: %s\n", label, path)
	for _, env := range order {
		fmt.Fprintf(w, "   %3d runs  %+v\n", count[env], env)
	}
	if len(order) > 1 {
		fmt.Fprintf(w, "   MIXED: %s holds runs from %d environments\n", label, len(order))
	}
}

// compareReports prints, for every (end-to-end metric, workload) row both
// reports have, the two medians, their spreads, the change and the verdict
// under the metric's bound. It fails if any row regressed, and refuses to
// compare runs sized for different -seconds.
func compareReports(w io.Writer, aPath, bPath string) error {
	a, err := readReport(aPath)
	if err != nil {
		return err
	}
	b, err := readReport(bPath)
	if err != nil {
		return err
	}
	printEnvironments(w, "a", aPath, a)
	printEnvironments(w, "b", bPath, b)
	fmt.Fprintf(w, "%-14s %-20s %-6s %14s %3s %7s %14s %3s %7s %8s %6s  %s\n",
		"workload", "metric", "unit", "a median", "n", "spread", "b median", "n", "spread", "change", "bound", "verdict")
	regressed := 0
	for _, wl := range workloads {
		ra, rb := a.timed(wl.name), b.timed(wl.name)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, run := range slices.Concat(ra, rb) {
			if run.Seconds != ra[0].Seconds {
				return fmt.Errorf("%s: runs sized for -seconds %g and %g send different loads and cannot be compared",
					wl.name, ra[0].Seconds, run.Seconds)
			}
		}
		sameOps := slices.Equal(ra.opLists(), rb.opLists())
		for _, m := range endToEnd {
			va, vb := ra.values(m.name), rb.values(m.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			change, verdict := judge(m, va, vb, sameOps)
			if verdict == verdictRegressed {
				regressed++
			}
			fmt.Fprintf(w, "%-14s %-20s %-6s %14.4f %3d %6.2f%% %14.4f %3d %6.2f%% %+7.2f%% %5.1f%%  %s\n",
				wl.name, m.name, m.unit, median(va), len(va), 100*spread(va), median(vb), len(vb), 100*spread(vb),
				100*change, 100*m.bound, verdict)
		}
	}
	fmt.Fprintln(w, "change is b against a, positive when b is worse")
	if regressed > 0 {
		return fmt.Errorf("%d rows regressed", regressed)
	}
	return nil
}
