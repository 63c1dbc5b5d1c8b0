// Command benchdump makes the repository's performance trajectory
// machine-readable. It produces two JSON baselines at the repo root:
//
//   - BENCH_directory.json — the directory-index microbenchmarks
//     (ns/op, B/op, allocs/op per benchmark), gathered by running
//     `go test -run ^$ -bench <pattern> -benchmem` and parsing its output;
//   - BENCH_figures.json — headline metrics of every evaluation figure at
//     the Quick preset plus wall-clock generation time, gathered in-process.
//
// A third baseline, BENCH_cluster.json, is written by cmd/lormcluster (a
// real many-process run, not something benchdump can regenerate in-process);
// `benchdump -check` validates it alongside the other two, including the
// ≥2x pipelined-vs-serialized client speedup claim. It also re-parses the
// results_art.txt sweep (written by `lormsim -art-out`) and re-asserts the
// ART headline: hop columns present for every system, sizes strictly
// increasing, and ART sub-logarithmic against every O(log n) curve.
//
// The figure metric values are deterministic (fixed preset seed), so
// regenerating BENCH_figures.json changes only the timing fields; the
// microbenchmark timings vary with the machine. CI regenerates both files
// and runs `benchdump -check` so the tooling cannot silently rot.
//
// Usage:
//
//	benchdump                      # write both baselines to .
//	benchdump -benchtime 1x        # fast smoke (CI)
//	benchdump -skip-figures        # microbenchmarks only
//	benchdump -check               # validate existing baselines parse
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"lorm/internal/experiments"
	"lorm/internal/stats"
)

// BenchResult is one parsed `go test -bench` line.
type BenchResult struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"` // custom b.ReportMetric units
}

// DirectoryDump is the BENCH_directory.json document.
type DirectoryDump struct {
	GeneratedBy string        `json:"generated_by"`
	GoVersion   string        `json:"go_version"`
	Package     string        `json:"package"`
	BenchTime   string        `json:"benchtime"`
	Benchmarks  []BenchResult `json:"benchmarks"`
}

// FigureResult is one evaluation figure's headline metrics.
type FigureResult struct {
	Figure  string             `json:"figure"`
	Millis  float64            `json:"ms"`
	Metrics map[string]float64 `json:"metrics"`
}

// FiguresDump is the BENCH_figures.json document.
type FiguresDump struct {
	GeneratedBy string         `json:"generated_by"`
	Preset      string         `json:"preset"`
	Figures     []FigureResult `json:"figures"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchdump:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchdump", flag.ContinueOnError)
	var (
		dir         = fs.String("dir", ".", "directory to write/read the BENCH_*.json files")
		pattern     = fs.String("bench", "Dir", "benchmark name pattern passed to go test -bench")
		pkg         = fs.String("pkg", "./internal/directory/", "package holding the microbenchmarks")
		benchtime   = fs.String("benchtime", "1s", "go test -benchtime value (use 1x for a smoke run)")
		check       = fs.Bool("check", false, "validate the existing baseline files instead of regenerating")
		skipFigures = fs.Bool("skip-figures", false, "skip BENCH_figures.json (microbenchmarks only)")
		skipBench   = fs.Bool("skip-bench", false, "skip BENCH_directory.json (figures only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	dirJSON := filepath.Join(*dir, "BENCH_directory.json")
	figJSON := filepath.Join(*dir, "BENCH_figures.json")
	clusterJSON := filepath.Join(*dir, "BENCH_cluster.json")
	artTXT := filepath.Join(*dir, "results_art.txt")

	if *check {
		return checkFiles(dirJSON, figJSON, clusterJSON, artTXT)
	}

	if !*skipBench {
		dump, err := runBench(*pkg, *pattern, *benchtime)
		if err != nil {
			return err
		}
		if err := writeJSON(dirJSON, dump); err != nil {
			return err
		}
		fmt.Printf("benchdump: %s (%d benchmarks)\n", dirJSON, len(dump.Benchmarks))
	}
	if !*skipFigures {
		dump, err := runFigures()
		if err != nil {
			return err
		}
		if err := writeJSON(figJSON, dump); err != nil {
			return err
		}
		fmt.Printf("benchdump: %s (%d figures)\n", figJSON, len(dump.Figures))
	}
	return nil
}

// runBench shells out to go test and parses the benchmark lines.
func runBench(pkg, pattern, benchtime string) (*DirectoryDump, error) {
	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", pattern, "-benchmem", "-benchtime", benchtime, pkg)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go test -bench: %w\n%s", err, out.String())
	}
	results, err := parseBenchOutput(out.String())
	if err != nil {
		return nil, err
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("go test -bench %q produced no benchmark lines", pattern)
	}
	return &DirectoryDump{
		GeneratedBy: "benchdump",
		GoVersion:   runtime.Version(),
		Package:     pkg,
		BenchTime:   benchtime,
		Benchmarks:  results,
	}, nil
}

// parseBenchOutput extracts BenchmarkXxx result lines of the form
//
//	BenchmarkName-8   1234   56.7 ns/op   8 B/op   0 allocs/op   3.2 custom-unit
//
// tolerating any mix of standard and custom (b.ReportMetric) units.
func parseBenchOutput(s string) ([]BenchResult, error) {
	var results []BenchResult
	sc := bufio.NewScanner(strings.NewReader(s))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // e.g. "BenchmarkX ... FAIL" shapes
		}
		r := BenchResult{Name: fields[0], Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("parse %q: bad value %q", fields[0], fields[i])
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BytesPerOp = v
			case "allocs/op":
				r.AllocsPerOp = v
			default:
				if r.Extra == nil {
					r.Extra = make(map[string]float64)
				}
				r.Extra[unit] = v
			}
		}
		results = append(results, r)
	}
	return results, sc.Err()
}

// runFigures regenerates every evaluation figure at the Quick preset and
// records headline metrics (the same cells the figure-level benchmarks in
// bench_test.go report) plus wall-clock time.
func runFigures() (*FiguresDump, error) {
	p := experiments.Quick()
	dump := &FiguresDump{GeneratedBy: "benchdump", Preset: "quick"}

	start := time.Now()
	fig3a, err := experiments.Fig3a(p)
	if err != nil {
		return nil, fmt.Errorf("fig3a: %w", err)
	}
	last3a := len(fig3a.Rows) - 1
	dump.Figures = append(dump.Figures, FigureResult{
		Figure: "fig3a",
		Millis: float64(time.Since(start).Microseconds()) / 1000,
		Metrics: map[string]float64{
			"mercury-outlinks": fig3a.Column("mercury")[last3a],
			"lorm-outlinks":    fig3a.Column("lorm")[last3a],
		},
	})

	envStart := time.Now()
	env, err := experiments.NewEnv(p)
	if err != nil {
		return nil, fmt.Errorf("env: %w", err)
	}
	envMillis := float64(time.Since(envStart).Microseconds()) / 1000
	dump.Figures = append(dump.Figures, FigureResult{
		Figure:  "env-build",
		Millis:  envMillis,
		Metrics: map[string]float64{"nodes": float64(p.N), "pieces": float64(p.M * p.K)},
	})

	start = time.Now()
	b, c, d, e := experiments.Fig3bcd(env)
	ms3 := float64(time.Since(start).Microseconds()) / 1000
	dump.Figures = append(dump.Figures,
		FigureResult{Figure: "fig3b", Millis: ms3, Metrics: map[string]float64{
			"maan-avg-dir": b.Column("maan")[1], "lorm-avg-dir": b.Column("lorm")[1]}},
		FigureResult{Figure: "fig3c", Millis: 0, Metrics: map[string]float64{
			"sword-p99-dir": c.Column("sword")[2], "lorm-p99-dir": c.Column("lorm")[2]}},
		FigureResult{Figure: "fig3d", Millis: 0, Metrics: map[string]float64{
			"mercury-p99-dir": d.Column("mercury")[2], "lorm-p99-dir": d.Column("lorm")[2]}},
		FigureResult{Figure: "fig3e", Millis: 0, Metrics: map[string]float64{
			"art-avg-dir": e.Column("art")[1], "lorm-avg-dir": e.Column("lorm")[1]}},
	)

	start = time.Now()
	avg4, total4, err := experiments.Fig4(env)
	if err != nil {
		return nil, fmt.Errorf("fig4: %w", err)
	}
	ms4 := float64(time.Since(start).Microseconds()) / 1000
	last4 := len(total4.Rows) - 1
	dump.Figures = append(dump.Figures,
		FigureResult{Figure: "fig4a", Millis: ms4, Metrics: map[string]float64{
			"maan-hops-1attr": avg4.Column("maan")[0], "lorm-hops-1attr": avg4.Column("lorm")[0]}},
		FigureResult{Figure: "fig4b", Millis: 0, Metrics: map[string]float64{
			"maan-total-hops": total4.Column("maan")[last4], "lorm-total-hops": total4.Column("lorm")[last4]}},
	)

	start = time.Now()
	total5, avg5, err := experiments.Fig5(env)
	if err != nil {
		return nil, fmt.Errorf("fig5: %w", err)
	}
	ms5 := float64(time.Since(start).Microseconds()) / 1000
	dump.Figures = append(dump.Figures,
		FigureResult{Figure: "fig5a", Millis: ms5, Metrics: map[string]float64{
			"mercury-total-visited": total5.Column("mercury")[0], "lorm-total-visited": total5.Column("lorm")[0]}},
		FigureResult{Figure: "fig5b", Millis: 0, Metrics: map[string]float64{
			"sword-visited-1attr": avg5.Column("sword")[0], "lorm-visited-1attr": avg5.Column("lorm")[0]}},
	)

	start = time.Now()
	hops6, visited6, err := experiments.Fig6(p)
	if err != nil {
		return nil, fmt.Errorf("fig6: %w", err)
	}
	ms6 := float64(time.Since(start).Microseconds()) / 1000
	dump.Figures = append(dump.Figures,
		FigureResult{Figure: "fig6a", Millis: ms6, Metrics: map[string]float64{
			"lorm-churn-hops": hops6.Column("lorm")[0], "failures": hops6.Column("failures")[0]}},
		FigureResult{Figure: "fig6b", Millis: 0, Metrics: map[string]float64{
			"lorm-churn-visited": visited6.Column("lorm")[0], "mercury-churn-visited": visited6.Column("mercury")[0]}},
	)

	start = time.Now()
	loadTables, err := experiments.LoadBalance(p, true)
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	msLoad := float64(time.Since(start).Microseconds()) / 1000
	factor := loadTables[0]
	dump.Figures = append(dump.Figures, FigureResult{
		Figure: "load",
		Millis: msLoad,
		Metrics: map[string]float64{
			"sword-load-factor":      factor.Column("sword")[0],
			"lorm-load-factor":       factor.Column("lorm")[0],
			"lorm-load-factor-rebal": factor.Column("lorm_rebal")[0],
		},
	})
	return dump, nil
}

// clusterBaseline mirrors the BENCH_cluster.json layout cmd/lormcluster
// emits; only the fields the checker validates are declared, so the two
// commands can evolve their documents independently.
type clusterBaseline struct {
	Params struct {
		Nodes   int `json:"Nodes"`
		Clients int `json:"Clients"`
	} `json:"params"`
	Ops map[string]struct {
		Count    int     `json:"count"`
		Failures int     `json:"failures"`
		P50us    float64 `json:"p50_us"`
		P99us    float64 `json:"p99_us"`
		P999us   float64 `json:"p999_us"`
	} `json:"ops"`
	Comparison *struct {
		Callers int     `json:"callers"`
		Speedup float64 `json:"speedup"`
	} `json:"pipeline_comparison"`
}

// checkCluster validates one BENCH_cluster.json document: both op classes
// measured with zero failures and ordered latency quantiles, and the
// pipelined client at least 2x faster than the serialized window=1 client
// — the headline claim of the transport work, so a regression fails CI.
func checkCluster(path string) error {
	var cb clusterBaseline
	if err := readJSON(path, &cb); err != nil {
		return err
	}
	if cb.Params.Nodes < 1 || cb.Params.Clients < 1 {
		return fmt.Errorf("%s: implausible params %+v", path, cb.Params)
	}
	for _, op := range []string{"announce", "query"} {
		s, ok := cb.Ops[op]
		if !ok {
			return fmt.Errorf("%s: op %q missing", path, op)
		}
		if s.Count <= 0 {
			return fmt.Errorf("%s: op %q recorded no operations", path, op)
		}
		if s.Failures != 0 {
			return fmt.Errorf("%s: op %q has %d failures", path, op, s.Failures)
		}
		if !(s.P50us > 0 && s.P50us <= s.P99us && s.P99us <= s.P999us) {
			return fmt.Errorf("%s: op %q quantiles not ordered: p50=%g p99=%g p999=%g",
				path, op, s.P50us, s.P99us, s.P999us)
		}
	}
	if cb.Comparison == nil {
		return fmt.Errorf("%s: pipeline_comparison missing", path)
	}
	if cb.Comparison.Speedup < 2 {
		return fmt.Errorf("%s: pipelined speedup %.2fx below the required 2x at %d callers",
			path, cb.Comparison.Speedup, cb.Comparison.Callers)
	}
	return nil
}

// parseResultsTable reconstructs a stats.Table from the text format
// `lormsim` writes: a `== title ==` line, indented notes, then a
// whitespace-aligned header row followed by numeric rows. The header is
// recognized as the first line whose leading field is a column name rather
// than a number; everything before it is title/notes.
func parseResultsTable(path string) (*stats.Table, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var tbl *stats.Table
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "==") {
			continue
		}
		if tbl == nil {
			if _, err := strconv.ParseFloat(fields[0], 64); err != nil {
				if fields[0] == "n" || fields[0] == "attrs" || fields[0] == "rate" || fields[0] == "stat" {
					tbl = stats.NewTable(path, fields...)
				}
				continue // a note line, or the header we just consumed
			}
			return nil, fmt.Errorf("%s: data row %q before any header", path, sc.Text())
		}
		row := make([]float64, len(fields))
		for i, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad cell %q in row %q", path, f, sc.Text())
			}
			row[i] = v
		}
		if len(row) != len(tbl.Columns) {
			return nil, fmt.Errorf("%s: row %q has %d cells, header has %d columns",
				path, sc.Text(), len(row), len(tbl.Columns))
		}
		tbl.AddRow(row...)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if tbl == nil {
		return nil, fmt.Errorf("%s: no table header found", path)
	}
	return tbl, nil
}

// checkARTResults re-validates a written results_art.txt sweep: every hop
// column present and positive, network sizes strictly increasing, and the
// ART sub-logarithmic assertion still holding on the file as written — so
// a stale or hand-edited sweep cannot claim the headline result.
func checkARTResults(path string) error {
	tbl, err := parseResultsTable(path)
	if err != nil {
		return err
	}
	sizes := tbl.Column("n")
	if len(sizes) < 2 {
		return fmt.Errorf("%s: sweep has %d rows, need at least 2", path, len(sizes))
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			return fmt.Errorf("%s: network sizes not strictly increasing at row %d (%.0f after %.0f)",
				path, i, sizes[i], sizes[i-1])
		}
	}
	for _, col := range tbl.Columns[1:] {
		vals := tbl.Column(col)
		if len(vals) != len(sizes) {
			return fmt.Errorf("%s: column %s missing", path, col)
		}
		for i, v := range vals {
			if v <= 0 {
				return fmt.Errorf("%s: column %s row %d is %.3f, want > 0", path, col, i, v)
			}
		}
	}
	if err := experiments.ARTSubLogAssert(tbl); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// checkFiles validates that the baselines exist, parse, and are non-empty
// — the CI guard against the perf tooling rotting silently.
func checkFiles(dirJSON, figJSON, clusterJSON, artTXT string) error {
	var dd DirectoryDump
	if err := readJSON(dirJSON, &dd); err != nil {
		return err
	}
	if len(dd.Benchmarks) == 0 {
		return fmt.Errorf("%s: no benchmarks recorded", dirJSON)
	}
	names := make(map[string]bool, len(dd.Benchmarks))
	for _, b := range dd.Benchmarks {
		if b.Name == "" || b.NsPerOp <= 0 {
			return fmt.Errorf("%s: malformed benchmark entry %+v", dirJSON, b)
		}
		// Strip the -<GOMAXPROCS> suffix so checks are machine-independent.
		names[strings.Split(b.Name, "-")[0]] = true
	}
	for _, want := range []string{
		"BenchmarkDirMatch/100", "BenchmarkDirMatch/10k", "BenchmarkDirMatch/1M",
		"BenchmarkDirAdd", "BenchmarkDirTakeRange",
	} {
		if !names[want] {
			return fmt.Errorf("%s: benchmark %s missing", dirJSON, want)
		}
	}

	var fd FiguresDump
	if err := readJSON(figJSON, &fd); err != nil {
		return err
	}
	if len(fd.Figures) == 0 {
		return fmt.Errorf("%s: no figures recorded", figJSON)
	}
	figs := make(map[string]bool, len(fd.Figures))
	for _, f := range fd.Figures {
		if len(f.Metrics) == 0 {
			return fmt.Errorf("%s: figure %s has no metrics", figJSON, f.Figure)
		}
		figs[f.Figure] = true
	}
	for _, want := range []string{"fig3a", "fig3b", "fig4a", "fig5a", "fig6a", "load"} {
		if !figs[want] {
			return fmt.Errorf("%s: figure %s missing", figJSON, want)
		}
	}
	if err := checkCluster(clusterJSON); err != nil {
		return err
	}
	if err := checkARTResults(artTXT); err != nil {
		return err
	}

	fmt.Printf("benchdump: %s (%d benchmarks), %s (%d figures), %s and %s parse\n",
		dirJSON, len(dd.Benchmarks), figJSON, len(fd.Figures), clusterJSON, artTXT)
	return nil
}

func writeJSON(path string, v interface{}) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v interface{}) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s does not parse: %w", path, err)
	}
	return nil
}
