// Command benchdiff runs the repository's Go benchmarks, records every
// reported metric (ns/op, B/op, allocs/op and custom b.ReportMetric
// series) as JSON, and gates a later run against a committed baseline
// with per-metric tolerances. It exists so the figure benchmarks form a
// regression fence: wall time is compared loosely (CI hardware varies),
// allocations tightly (they are machine-independent).
//
// Two sets are timed differently. The figure benchmarks each simulate a
// whole sweep, so one iteration (-benchtime 1x) is a measurement. The
// hot-path micro benchmarks (-micro) run for MicroBenchtime each, long
// enough that their numbers are the steady state rather than a one-shot
// set-up cost.
// With -count N every benchmark runs N times and the record keeps each
// metric's median, with the spread (max - min) of the N samples beside it.
//
// Examples:
//
//	benchdiff run -count 5 -out BENCH_pr17.json
//	benchdiff run -out /tmp/bench.json -bench '^BenchmarkSuiteParallel$' -micro ''
//	benchdiff compare -baseline BENCH_pr17.json -current /tmp/bench.json
//	benchdiff compare -baseline BENCH_pr17.json -current /tmp/bench.json -time-tol 300 -alloc-tol 15
//
// The compare exit status is 1 on any regression beyond tolerance, 2 on
// usage or I/O errors, 0 otherwise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"

	"smartrefresh/internal/atomicio"
)

// DefaultBench selects the figure benchmarks, the headline sweep and the
// vault runs: whole simulations, timed at one iteration each.
const DefaultBench = `^BenchmarkSuiteParallel$|^BenchmarkFig[6-9]|^BenchmarkVaultShardedRun`

// DefaultMicro selects the allocation-sensitive micro benchmarks of the
// policy, controller, power-state and generator hot paths.
const DefaultMicro = `^Benchmark(Smart|DARP|SARP|RAIDR)PolicyAdvance$|^BenchmarkControllerSubmit$|^BenchmarkPowerStateAdvance$|^BenchmarkWorkloadGenerator$`

// MicroBenchtime is the go test -benchtime of the micro benchmarks.
const MicroBenchtime = "200ms"

// Run is one recorded benchmark execution: for every benchmark, every
// metric the testing package printed (unit -> value). With Count > 1,
// Benchmarks holds each metric's median over the Count samples and
// Spread its max - min.
type Run struct {
	GoOS           string                        `json:"goos"`
	GoArch         string                        `json:"goarch"`
	Bench          string                        `json:"bench"`
	Benchtime      string                        `json:"benchtime"`
	Micro          string                        `json:"micro,omitempty"`
	MicroBenchtime string                        `json:"micro_benchtime,omitempty"`
	Count          int                           `json:"count,omitempty"`
	Benchmarks     map[string]map[string]float64 `json:"benchmarks"`
	Spread         map[string]map[string]float64 `json:"spread,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, w io.Writer) int {
	if len(args) < 1 {
		fmt.Fprintln(w, "usage: benchdiff run|compare [flags]")
		return 2
	}
	switch args[0] {
	case "run":
		return runBench(args[1:], w)
	case "compare":
		return runCompare(args[1:], w)
	default:
		fmt.Fprintf(w, "benchdiff: unknown subcommand %q (want run or compare)\n", args[0])
		return 2
	}
}

func runBench(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("benchdiff run", flag.ContinueOnError)
	fs.SetOutput(w)
	out := fs.String("out", "", "output JSON path (default stdout)")
	bench := fs.String("bench", DefaultBench, "go test -bench regexp of the whole-simulation benchmarks (empty = none)")
	benchtime := fs.String("benchtime", "1x", "go test -benchtime for -bench")
	micro := fs.String("micro", DefaultMicro, "go test -bench regexp of the hot-path micro benchmarks, run for "+MicroBenchtime+" each (empty = none)")
	count := fs.Int("count", 1, "samples per benchmark; the record keeps the median and the spread")
	pkg := fs.String("pkg", ".", "package to benchmark")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *count < 1 {
		fmt.Fprintln(w, "benchdiff run: -count must be at least 1")
		return 2
	}

	samples := map[string][]map[string]float64{}
	for _, set := range []struct{ re, benchtime string }{{*bench, *benchtime}, {*micro, MicroBenchtime}} {
		if set.re == "" {
			continue
		}
		cmd := exec.Command("go", "test", "-run", "^$", "-bench", set.re,
			"-benchmem", "-benchtime", set.benchtime, "-count", strconv.Itoa(*count), *pkg)
		raw, err := cmd.Output()
		if err != nil {
			if ee, ok := err.(*exec.ExitError); ok {
				fmt.Fprintf(w, "benchdiff: go test failed: %s\n%s\n", err, ee.Stderr)
			} else {
				fmt.Fprintln(w, "benchdiff: go test failed:", err)
			}
			return 2
		}
		for name, ms := range parseBenchSamples(string(raw)) {
			samples[name] = append(samples[name], ms...)
		}
	}

	r := Run{
		GoOS: runtime.GOOS, GoArch: runtime.GOARCH,
		Bench: *bench, Benchtime: *benchtime,
		Micro: *micro, MicroBenchtime: MicroBenchtime,
		Count: *count,
	}
	r.Benchmarks, r.Spread = summarize(samples)
	if len(r.Benchmarks) == 0 {
		fmt.Fprintln(w, "benchdiff: no benchmarks matched", *bench, *micro)
		return 2
	}
	enc, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		fmt.Fprintln(w, "benchdiff:", err)
		return 2
	}
	enc = append(enc, '\n')
	if *out == "" {
		w.Write(enc)
		return 0
	}
	if err := atomicio.WriteFileBytes(*out, enc); err != nil {
		fmt.Fprintln(w, "benchdiff:", err)
		return 2
	}
	fmt.Fprintf(w, "benchdiff: wrote %d benchmarks to %s\n", len(r.Benchmarks), *out)
	return 0
}

// summarize folds each benchmark's samples into the median and the
// spread (max - min) of every metric. A metric missing from some
// samples is summarised over the samples that report it.
func summarize(samples map[string][]map[string]float64) (median, spread map[string]map[string]float64) {
	median = map[string]map[string]float64{}
	spread = map[string]map[string]float64{}
	for name, runs := range samples {
		values := map[string][]float64{}
		for _, m := range runs {
			for metric, v := range m {
				values[metric] = append(values[metric], v)
			}
		}
		median[name] = map[string]float64{}
		spread[name] = map[string]float64{}
		for metric, vs := range values {
			slices.Sort(vs)
			n := len(vs)
			med := vs[n/2]
			if n%2 == 0 {
				med = (vs[n/2-1] + vs[n/2]) / 2
			}
			median[name][metric] = med
			spread[name][metric] = vs[n-1] - vs[0]
		}
	}
	return median, spread
}

// parseBenchSamples extracts metric maps from `go test -bench` output,
// one per benchmark line in output order (-count N repeats a name N
// times). A benchmark line is "BenchmarkName-8  <iters>  <value> <unit>
// ..."; the GOMAXPROCS suffix is stripped so records compare across
// machines.
func parseBenchSamples(out string) map[string][]map[string]float64 {
	res := map[string][]map[string]float64{}
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		iters, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		m := map[string]float64{"iterations": iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			m[fields[i+1]] = v
		}
		res[name] = append(res[name], m)
	}
	return res
}

// Regression is one metric that moved past its tolerance. The spreads
// are the max - min of each side's samples (zero for a one-sample run),
// printed so a reader can tell a shift from noise.
type Regression struct {
	Benchmark  string
	Metric     string
	Baseline   float64
	Current    float64
	TolPct     float64
	BaseSpread float64
	CurSpread  float64
}

func (r Regression) String() string {
	return fmt.Sprintf("%s %s: %.6g -> %.6g (tolerance %.6g%%; spread %.3g -> %.3g)",
		r.Benchmark, r.Metric, r.Baseline, r.Current, r.TolPct, r.BaseSpread, r.CurSpread)
}

// compareRuns gates current against baseline, median against median when
// the runs were recorded with -count > 1. ns/op uses timeTolPct;
// B/op and allocs/op use allocTolPct plus a one-allocation absolute slack
// so a zero-alloc baseline tolerates measurement noise but not a real
// allocation on the hot path (which shows up in the thousands per op).
// Custom metrics are informational only — they depend on simulation
// outputs that internal/check already pins exactly. Benchmarks present in
// the baseline but missing from current are regressions (the fence must
// not silently narrow).
func compareRuns(baseline, current Run, timeTolPct, allocTolPct float64) []Regression {
	var regs []Regression
	names := make([]string, 0, len(baseline.Benchmarks))
	for name := range baseline.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		base := baseline.Benchmarks[name]
		cur, ok := current.Benchmarks[name]
		if !ok {
			regs = append(regs, Regression{Benchmark: name, Metric: "missing"})
			continue
		}
		for metric, bv := range base {
			cv, ok := cur[metric]
			if !ok {
				continue
			}
			var tol float64
			var slack float64
			switch metric {
			case "ns/op":
				tol = timeTolPct
			case "allocs/op", "B/op":
				tol = allocTolPct
				slack = 1 // absolute: one stray allocation / byte
			default:
				continue
			}
			if cv > bv*(1+tol/100)+slack {
				regs = append(regs, Regression{
					Benchmark: name, Metric: metric,
					Baseline: bv, Current: cv, TolPct: tol,
					BaseSpread: baseline.Spread[name][metric],
					CurSpread:  current.Spread[name][metric],
				})
			}
		}
	}
	return regs
}

func readRun(path string) (Run, error) {
	var r Run
	raw, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func runCompare(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("benchdiff compare", flag.ContinueOnError)
	fs.SetOutput(w)
	basePath := fs.String("baseline", "", "committed baseline JSON")
	curPath := fs.String("current", "", "freshly recorded JSON")
	timeTol := fs.Float64("time-tol", 300, "ns/op regression tolerance, percent (loose: hardware varies)")
	allocTol := fs.Float64("alloc-tol", 15, "allocs/op and B/op regression tolerance, percent")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *basePath == "" || *curPath == "" {
		fmt.Fprintln(w, "benchdiff compare: -baseline and -current are required")
		return 2
	}
	baseline, err := readRun(*basePath)
	if err != nil {
		fmt.Fprintln(w, "benchdiff:", err)
		return 2
	}
	current, err := readRun(*curPath)
	if err != nil {
		fmt.Fprintln(w, "benchdiff:", err)
		return 2
	}

	regs := compareRuns(baseline, current, *timeTol, *allocTol)
	if len(regs) == 0 {
		fmt.Fprintf(w, "benchdiff: %d benchmarks within tolerance (time %.0f%%, alloc %.0f%%)\n",
			len(baseline.Benchmarks), *timeTol, *allocTol)
		return 0
	}
	fmt.Fprintf(w, "benchdiff: %d regression(s):\n", len(regs))
	for _, r := range regs {
		if r.Metric == "missing" {
			fmt.Fprintf(w, "  %s: missing from current run\n", r.Benchmark)
			continue
		}
		fmt.Fprintf(w, "  %s\n", r)
	}
	return 1
}
