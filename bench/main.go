// Command bench is the repository's benchmark: it builds a paper-scale
// deployment in process, drives the named workloads through it, checks the
// answers against an oracle and prints every metric by name with its unit.
// README.md explains the metrics, the layers and why each workload exists.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"

	"lorm/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errFailed is returned when every pass ran but some op failed or some
// answer was wrong; the results are printed all the same.
var errFailed = errors.New("failed operations or wrong answers, see first_error")

// environment is recorded with every run so numbers from different boxes
// or commits are never compared unknowingly.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentEnvironment() environment {
	env := environment{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					env.Commit += "+modified"
				}
			}
		}
	}
	return env
}

// report is what -out accumulates and -compare reads. Each run carries its
// own environment, so a file appended to across commits or boxes says so.
type report struct {
	Runs []*result `json:"runs"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 20090922, "seed of the op-list generator; the same seed gives the same requests")
	workload := fs.String("workload", "all", "one workload's name, or all")
	trace := fs.String("trace", "both", "0: the timed end-to-end pass, 1: the traced per-layer pass, both: one after the other")
	seconds := fs.Float64("seconds", runSeconds, "seconds of measurement the phases are sized for; the acceptance driver passes BENCHMARK.json's run_seconds")
	out := fs.String("out", filepath.Join("bench", "out"), "directory for report.json (appended to) and trace_<workload>.jsonl")
	compare := fs.Bool("compare", false, "compare two report files given as arguments instead of running")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two report files")
		}
		return compareReports(stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	var passes []string
	switch *trace {
	case "0":
		passes = []string{"end_to_end"}
	case "1":
		passes = []string{"per_layer"}
	case "both":
		passes = []string{"end_to_end", "per_layer"}
	default:
		return fmt.Errorf("-trace must be 0, 1 or both")
	}
	specs := workloads
	if *workload != "all" {
		w := findWorkload(*workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		specs = []workloadSpec{*w}
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}

	// Driver and gateway share the process; cap the processors so a large
	// box does not hide the contention the two-core reference box has.
	if runtime.NumCPU() > 4 {
		runtime.GOMAXPROCS(4)
	}
	env := currentEnvironment()
	fmt.Fprintf(stdout, "env: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%g\n",
		env.NumCPU, env.GOMAXPROCS, env.GoVersion, env.Commit, *seed, *seconds)

	sc := newScale(experiments.Paper())
	var runs []*result
	for i := range specs {
		for _, pass := range passes {
			var (
				res *result
				err error
			)
			if pass == "end_to_end" {
				res, err = runEndToEnd(sc, &specs[i], *seed, *seconds, stdout)
			} else {
				res, err = runTraced(sc, &specs[i], *seed, *seconds, *out, stdout)
			}
			if err != nil {
				return fmt.Errorf("%s %s: %w", specs[i].name, pass, err)
			}
			res.Env = env
			printResult(stdout, res)
			runs = append(runs, res)
		}
	}
	if err := appendReport(filepath.Join(*out, "report.json"), runs); err != nil {
		return err
	}

	// One workload, one pass: metric names as they are. Otherwise each is
	// prefixed with its workload so nothing collides.
	sum := summary{Correct: true, Metrics: map[string]value{}}
	for _, res := range runs {
		sum.Attempted += res.Attempted
		sum.Failed += res.Failed
		for name, v := range res.Metrics {
			if len(specs) > 1 {
				name = res.Workload + "/" + name
			}
			sum.Metrics[name] = v
		}
	}
	sum.Correct = sum.Failed == 0
	line, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !sum.Correct {
		return errFailed
	}
	return nil
}

// printResult lists a pass's metrics by name with their units.
func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "%s %s: attempted=%d failed=%d\n", res.Workload, res.Pass, res.Attempted, res.Failed)
	if res.FirstErr != "" {
		fmt.Fprintf(w, "%s %s: first error: %s\n", res.Workload, res.Pass, res.FirstErr)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := res.Metrics[name]
		fmt.Fprintf(w, "  %-36s %16.4f %s\n", name, v.Value, v.Unit)
	}
}

// appendReport adds the runs to the report file, creating it if need be, so
// that repeated invocations with the same -out build up a set of runs.
func appendReport(path string, runs []*result) error {
	var rep report
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &rep); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	rep.Runs = append(rep.Runs, runs...)
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
