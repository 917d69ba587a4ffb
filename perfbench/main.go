// Command perfbench is the simulator's benchmark: it runs one workload as
// closed batch jobs through experiment.Engine for a fixed wall-clock
// budget, checks every run's output, and prints the end-to-end metrics
// (--trace 0) or the per-layer metrics of a traced re-composition of the
// same request loop (--trace 1). The last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// See README.md for the workloads, the metric glossary and the layer map.
// Build and run it through run.sh from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 0, "input seed (0 = each profile's own seed)")
	seconds := fs.Int("seconds", 10, "wall-clock seconds to measure")
	traced := fs.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	outDir := fs.String("out", ".bench_build/trace", "directory for span and share-table files (--trace 1)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: usage: --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	b := &bench{w: w, seed: *seed, budget: time.Duration(*seconds) * time.Second, out: stdout}
	var res result
	if *traced == 1 {
		res, err = b.traced(*outDir)
	} else {
		res, err = b.endToEnd()
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// bench holds one invocation's state: the workload, the seed, and the
// tally of runs attempted and failed.
type bench struct {
	w      benchWorkload
	seed   uint64
	budget time.Duration
	out    io.Writer

	attempted, failed int
	// want is the fingerprint every run at this seed must reproduce: the
	// recorded one at seed 0, else the first run's.
	want string
}

// fail counts a failed run and says why.
func (b *bench) fail(what string, err error) {
	b.failed++
	fmt.Fprintf(b.out, "FAIL %s: %v\n", what, err)
}

// checkFingerprint compares a run's fingerprint against the seed's
// expected one, adopting the first one seen when none is recorded.
func (b *bench) checkFingerprint(what, got string) {
	if b.want == "" {
		b.want = got
		return
	}
	if got != b.want {
		b.fail(what, fmt.Errorf("fingerprint %s, want %s", got, b.want))
	}
}

// reference runs the workload at the profile's own seed through
// experiment.RunContext; it must reproduce the recorded fingerprint.
func (b *bench) reference() {
	b.attempted++
	got, err := runReference(b.w)
	if err == nil && got != b.w.fingerprint {
		err = fmt.Errorf("fingerprint %s, recorded %s", got, b.w.fingerprint)
	}
	if err != nil {
		b.fail("reference run", err)
	}
	if b.seed == 0 {
		b.want = b.w.fingerprint
	}
}

// retention runs a short window at this seed with the retention checker
// on: every row must be restored within its deadline.
func (b *bench) retention() {
	b.attempted++
	if err := runRetention(b.w, b.seed); err != nil {
		b.fail("retention run", err)
	}
}

// untraced makes one timed end-to-end run and checks it.
func (b *bench) untraced() runSample {
	b.attempted++
	s := runUntraced(b.w, b.seed)
	if s.err != nil {
		b.fail("run", s.err)
		return s
	}
	b.checkFingerprint("run", s.fingerprint)
	return s
}

func (b *bench) endToEnd() (result, error) {
	b.reference()
	var runs []runSample
	start := time.Now()
	for time.Since(start) < b.budget || len(runs) < minRuns {
		if s := b.untraced(); s.err == nil {
			runs = append(runs, s)
		}
		if len(runs) == 0 && b.failed > 0 {
			break
		}
	}
	rss, err := maxRSSMB()
	if err != nil {
		return result{}, err
	}
	if len(runs) == 0 {
		return result{}, fmt.Errorf("%s: no run succeeded", b.w.name)
	}
	b.retention() // after the peak-RSS reading: the checker's tables are not the workload's
	col := func(f func(runSample) float64) []float64 {
		out := make([]float64, len(runs))
		for i, r := range runs {
			out[i] = f(r)
		}
		return out
	}
	samples := map[string][]float64{
		"run_cpu_s":     col(func(r runSample) float64 { return r.cpuRunS }),
		"setup_s":       col(func(r runSample) float64 { return r.cpuSetupS }),
		"req_per_cpu_s": col(func(r runSample) float64 { return float64(r.reqs) / r.cpuSimS }),
		"alloc_mb":      col(func(r runSample) float64 { return float64(r.allocBytes) / (1 << 20) }),
		"allocs":        col(func(r runSample) float64 { return float64(r.allocs) }),
		"max_rss_mb":    {rss},
		"run_s":         col(func(r runSample) float64 { return r.runS }),
		"setup_wall_s":  col(func(r runSample) float64 { return r.setupS }),
		"req_per_s":     col(func(r runSample) float64 { return float64(r.reqs) / r.simS }),
	}
	m := map[string]metric{}
	for _, e := range endToEndUnits {
		m[e.name] = metric{median(samples[e.name]), e.unit}
	}
	fmt.Fprintf(b.out, "workload %s seed %d: %d timed runs in %.1f s, %d requests per run, fingerprint %s\n",
		b.w.name, b.seed, len(runs), time.Since(start).Seconds(), runs[0].reqs, b.want)
	fmt.Fprintf(b.out, "  %-14s %14s %14s %14s\n", "metric", "median", "q1", "q3")
	for _, e := range append(endToEndUnits, wallUnits...) {
		q1, q3 := quartiles(samples[e.name])
		fmt.Fprintf(b.out, "  %-14s %14.6g %14.6g %14.6g %s\n", e.name, median(samples[e.name]), q1, q3, e.unit)
	}
	fmt.Fprintf(b.out, "  %-14s %14.6g %44s (%d of %d runs failed)\n", "error_rate",
		float64(b.failed)/float64(b.attempted), "ratio", b.failed, b.attempted)
	return result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}, nil
}

// minRuns is the fewest timed runs the medians are taken over, whatever
// the budget.
const minRuns = 5

// endToEndUnits lists the end-to-end metrics of the result line, with
// their units. Their times are process CPU seconds: on a shared virtual
// machine the hypervisor steals CPU for minutes at a time, which moves
// wall-clock times by up to half, while CPU time stays within a few per
// cent. The failure rate goes out as "attempted" and "failed".
var endToEndUnits = []struct{ name, unit string }{
	{"run_cpu_s", "s"},
	{"setup_s", "s"},
	{"req_per_cpu_s", "1/s"},
	{"alloc_mb", "MB"},
	{"allocs", "count"},
	{"max_rss_mb", "MB"},
}

// wallUnits are the wall-clock counterparts, printed for reading but
// left out of the result line.
var wallUnits = []struct{ name, unit string }{
	{"run_s", "s"},
	{"setup_wall_s", "s"},
	{"req_per_s", "1/s"},
}
