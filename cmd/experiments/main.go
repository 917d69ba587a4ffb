// Command experiments regenerates the paper's evaluation: Figures 6-18
// as per-benchmark tables with measured and published GMEANs, plus the
// section 4.4 optimality study, the figure 2 stagger ablation, the
// section 5 queue sizing study, the RAS-only bus overhead ablation, the
// RAIDR multirate Bloom-filter wheel ablation (bin count x profile
// error under VRT), the refresh-access-parallelism (DARP/SARP per-bank
// refresh) study, and the section 4.6 idle-OS self-disable experiment.
//
// Simulations run on a worker pool (-jobs, default one worker per CPU)
// and are memoised, so the figure groups that share a sweep (6/7/8,
// 9/10/11, 12/13/14, 15/16/17/18) each simulate their (config,
// benchmark, policy) combinations exactly once. Use -benchmarks and
// -figures to restrict the sweep further.
//
// Long campaigns are interruptible and resumable: with -checkpoint,
// every completed simulation is persisted (atomically) as it finishes,
// SIGINT/SIGTERM stop the sweep at the next cancellation point, and a
// later run with -resume serves the finished jobs from the checkpoint
// as cache hits — regenerating byte-identical figure tables without
// repeating any simulation.
//
// Examples:
//
//	experiments                          # everything
//	experiments -jobs 1                  # serial (identical output)
//	experiments -figures fig6,fig7,fig8  # one configuration's sweep
//	experiments -benchmarks fasta,gcc -figures fig12
//	experiments -ablations               # only the ablation studies
//	experiments -checkpoint sweep.ckpt   # persist progress; ^C is safe
//	experiments -resume sweep.ckpt       # pick up where ^C stopped
//	experiments -trace out.json          # Perfetto-loadable command trace
//	experiments -metrics -               # metrics registry to stdout
//	experiments -pprof localhost:6060    # live profiling endpoint
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"smartrefresh/internal/experiment"
	"smartrefresh/internal/report"
	"smartrefresh/internal/sim"
	"smartrefresh/internal/telemetry"
	"smartrefresh/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		if errors.Is(err, context.Canceled) {
			// The checkpoint (when enabled) was flushed after every
			// completed job, so the interrupted campaign is resumable.
			fmt.Fprintln(os.Stderr, "experiments: interrupted;", err)
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	figures := fs.String("figures", "all", "comma-separated figure ids (fig6..fig18), 'all', or 'none'")
	benchmarks := fs.String("benchmarks", "all", "comma-separated benchmark subset or 'all'")
	warmupMS := fs.Int("warmup-ms", 64, "warmup excluded from measurement, ms")
	measureMS := fs.Int("measure-ms", 256, "measured window, ms")
	ablations := fs.Bool("ablations", false, "run the ablation studies (also run with -figures none)")
	powerstateSmoke := fs.Bool("powerstate-smoke", false,
		"run the power-state sweep at fixed short windows and print result fingerprints only (byte-stable; CI diffs this against results/powerstate_smoke.txt)")
	quiet := fs.Bool("quiet", false, "suppress per-run progress lines")
	formatName := fs.String("format", "text", "figure output format: text, csv, markdown, json")
	jobs := fs.Int("jobs", runtime.GOMAXPROCS(0), "worker pool size for simulations (1 = serial)")
	shards := fs.Int("shards", 0,
		"intra-run vault workers for vaulted configurations (0 = one per CPU, 1 = serial); orthogonal to -jobs and bit-identical at any value")
	selfRefreshUS := fs.Int("selfrefresh-us", 0,
		"arm controller self-refresh after this demand-idle time in us (0 = off; must exceed the 2us page-close timeout)")
	checkpointPath := fs.String("checkpoint", "",
		"persist every completed simulation to this file (atomic rewrite per job); safe to interrupt")
	resumePath := fs.String("resume", "",
		"load a previous run's checkpoint and serve its completed simulations as cache hits (implies -checkpoint onto the same file unless one is given)")
	var tf telemetry.Flags
	tf.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	format, err := report.ParseFormat(*formatName)
	if err != nil {
		return err
	}
	if err := tf.Start(); err != nil {
		return err
	}
	// Completes the profiles on exit paths that skip Finish.
	defer tf.StopProfiles()

	var checkpoint *experiment.Checkpoint
	switch {
	case *resumePath != "":
		checkpoint, err = experiment.LoadCheckpoint(*resumePath)
		if err != nil {
			return err
		}
		if *checkpointPath != "" {
			checkpoint.SetPath(*checkpointPath)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "resume: %d completed simulations restored from %s\n",
				checkpoint.Len(), *resumePath)
		}
	case *checkpointPath != "":
		checkpoint = experiment.NewCheckpoint(*checkpointPath)
	}

	eng := experiment.NewEngine(*jobs)
	eng.Ctx = ctx
	eng.Checkpoint = checkpoint
	eng.Trace = tf.Tracer()
	eng.Metrics = tf.Registry()
	if !*quiet {
		eng.OnJobDone = func(ev experiment.JobEvent) {
			if ev.Cached {
				fmt.Fprintf(os.Stderr, "job %s/%s/%s: memoised\n", ev.Config, ev.Benchmark, ev.Policy)
				return
			}
			fmt.Fprintf(os.Stderr, "job %s/%s/%s: %.2fs\n", ev.Config, ev.Benchmark, ev.Policy, ev.Wall.Seconds())
		}
	}

	if *powerstateSmoke {
		return powerStateSmoke(ctx, eng)
	}

	suite := experiment.NewSuite()
	suite.Engine = eng
	suite.Ctx = ctx
	suite.Opts = experiment.RunOptions{
		Warmup:           sim.Time(*warmupMS) * sim.Millisecond,
		Measure:          sim.Time(*measureMS) * sim.Millisecond,
		SelfRefreshAfter: sim.Time(*selfRefreshUS) * sim.Microsecond,
		Shards:           *shards,
	}
	if *benchmarks != "all" {
		suite.Benchmarks = strings.Split(*benchmarks, ",")
	}
	if !*quiet {
		suite.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}

	var ids []string
	switch *figures {
	case "all":
		ids = suite.FigureIDs()
	case "none":
	default:
		ids = strings.Split(*figures, ",")
	}
	for _, id := range ids {
		fig, err := suite.FigureByID(strings.TrimSpace(id))
		if err != nil {
			return interruptedErr(ctx, checkpoint, err)
		}
		if err := report.WriteFigure(os.Stdout, fig, format); err != nil {
			return err
		}
		fmt.Println()
	}

	if *ablations || *figures == "none" {
		if err := runAblations(ctx, eng, suite.Opts); err != nil {
			return interruptedErr(ctx, checkpoint, err)
		}
	}

	if !*quiet {
		if err := report.WriteEngineStats(os.Stderr, eng.Stats(), report.Text); err != nil {
			return err
		}
	}
	return tf.Finish()
}

// interruptedErr decorates a cancellation-caused failure with the
// resume instructions; any other error passes through untouched.
func interruptedErr(ctx context.Context, cp *experiment.Checkpoint, err error) error {
	if ctx.Err() == nil {
		return err
	}
	if path := cp.Path(); path != "" {
		return fmt.Errorf("%w; rerun with -resume %s to continue", ctx.Err(), path)
	}
	return fmt.Errorf("%w; rerun with -checkpoint to make interrupted sweeps resumable", ctx.Err())
}

func runAblations(ctx context.Context, eng *experiment.Engine, opts experiment.RunOptions) error {
	gcc, err := workload.ByName("gcc")
	if err != nil {
		return err
	}
	fasta, err := workload.ByName("fasta")
	if err != nil {
		return err
	}

	// The studies drive the engine through its context-free entry
	// points, which inherit eng.Ctx; a cancelled study returns fast
	// with error-carrying results, so bail between (and after) studies
	// rather than printing tables built from aborted runs.
	if err := ctx.Err(); err != nil {
		return err
	}
	fmt.Println("== Section 4.4: counter width vs optimality (benchmark: gcc) ==")
	fmt.Print(experiment.FormatCounterWidthStudy(
		experiment.CounterWidthStudy(eng, gcc, []int{2, 3, 4, 5}, opts)))
	fmt.Println()

	if err := ctx.Err(); err != nil {
		return err
	}
	fmt.Println("== Figure 2 ablation: staggered vs uniform counter seeding ==")
	for _, p := range experiment.StaggerStudy(experiment.Conv2GB) {
		fmt.Printf("  staggered=%-5v max pending/tick=%d peak refreshes/ms=%d\n",
			p.Staggered, p.MaxPendingPerTick, p.PeakRefreshesPerMs)
	}
	fmt.Println()

	if err := ctx.Err(); err != nil {
		return err
	}
	fmt.Println("== Section 5: segment count / pending queue sizing (benchmark: fasta) ==")
	for _, p := range experiment.SegmentsStudy(eng, fasta, []int{4, 8, 16}, opts) {
		fmt.Printf("  segments=%-3d queue=%-3d max pending/tick=%d refresh ops=%d\n",
			p.Segments, p.QueueDepth, p.MaxPendingPerTick, p.RefreshOps)
	}
	fmt.Println()

	if err := ctx.Err(); err != nil {
		return err
	}
	fmt.Println("== RAS-only bus overhead ablation (benchmark: gcc) ==")
	for _, p := range experiment.BusOverheadStudy(eng, gcc, opts) {
		fmt.Printf("  bus overhead=%-5v smart refresh energy=%.3f mJ saving=%.2f%%\n",
			p.WithOverhead, p.RefreshEnergyMJ, p.RefreshEnergySavingPct)
	}
	fmt.Println()

	if err := ctx.Err(); err != nil {
		return err
	}
	fmt.Println("== Retention-aware extension (RAPID/VRA + Smart Refresh, benchmark: gcc) ==")
	for _, p := range experiment.RetentionAwareStudy(eng, gcc, opts) {
		fmt.Printf("  %-16s refresh ops=%-8d reduction=%6.2f%% refreshE=%8.3f mJ totalE=%8.3f mJ\n",
			p.Policy, p.RefreshOps, p.RefreshReductionPct, p.RefreshEnergyMJ, p.TotalEnergyMJ)
	}
	fmt.Println()

	if err := ctx.Err(); err != nil {
		return err
	}
	fmt.Println("== RAIDR multirate Bloom-filter wheel: bin count x profile error (benchmark: gcc) ==")
	fmt.Print(experiment.FormatRAIDRStudy(experiment.RAIDRStudy(eng, gcc,
		[]int{1, 2, 3}, []float64{0, 0.05, 0.15},
		workload.VRTSpec{FlipFraction: 0.02, Period: 256 * sim.Millisecond}, opts)))
	fmt.Println()

	if err := ctx.Err(); err != nil {
		return err
	}
	fmt.Println("== Refresh-access parallelism (DARP/SARP per-bank refresh, benchmark: gcc) ==")
	fmt.Print(experiment.FormatRefreshParallelismStudy(
		experiment.RefreshParallelismStudy(eng, gcc, opts)))
	fmt.Println()

	if err := ctx.Err(); err != nil {
		return err
	}
	fmt.Println("== Section 4.6: idle-OS self-disable ==")
	d := experiment.DisableStudy(eng, opts)
	fmt.Printf("  disable circuitry engaged: %v\n", d.DisableSwitched)
	fmt.Printf("  baseline total energy:       %10.3f mJ\n", d.Baseline.Energy.Total().Millijoules())
	fmt.Printf("  smart (disable on) total:    %10.3f mJ (loss vs baseline: %.3f%%)\n",
		d.WithDisable.Energy.Total().Millijoules(), d.EnergyLossPctWithDisable)
	fmt.Printf("  smart (disable off) total:   %10.3f mJ\n",
		d.WithoutDisable.Energy.Total().Millijoules())
	fmt.Println()

	if err := ctx.Err(); err != nil {
		return err
	}
	fmt.Println("== Idle power management comparison (extension) ==")
	for _, p := range experiment.IdlePowerStudy(eng, opts) {
		fmt.Printf("  %-18s total=%10.3f mJ controller refreshes=%d\n",
			p.Name, p.TotalEnergyMJ, p.RefreshOps)
	}
	fmt.Println()

	if err := ctx.Err(); err != nil {
		return err
	}
	fmt.Println("== eDRAM refresh-interval study (introduction: NEC 4ms, IBM 64us) ==")
	for _, p := range experiment.EDRAMStudy(eng) {
		fmt.Printf("  interval=%-8v baseline=%12.0f refr/s  refresh share=%5.1f%%  reduction=%6.2f%%  total saving=%6.2f%%\n",
			p.Interval, p.BaselineRefreshesPerSec, p.BaselineRefreshSharePct,
			p.RefreshReductionPct, p.TotalSavingPct)
	}
	fmt.Println()

	if err := ctx.Err(); err != nil {
		return err
	}
	fmt.Println("== Vault-parallel scaling (HMC-style stack, benchmark: gcc) ==")
	vopts := opts
	vopts.Shards = 0 // the study sweeps its own shard counts
	study, err := experiment.RunVaultScaling(ctx, experiment.HMC8V.DRAM(), gcc,
		experiment.PolicySmart, vopts, []int{1, 2, 4, 8})
	if err != nil {
		return err
	}
	study.Render(os.Stdout)
	fmt.Println()

	if err := ctx.Err(); err != nil {
		return err
	}
	fmt.Println("== Power-state ladder Pareto sweep (ACT-PDN / PRE-PDN / SR idle policies) ==")
	sweep := experiment.RunPowerStateSweep(eng, nil, opts)
	sweep.Render(os.Stdout)
	vc, err := experiment.RunPowerStateVaultCheck(ctx, opts, []int{1, 8})
	if err != nil {
		return err
	}
	vc.Render(os.Stdout)
	return ctx.Err()
}

// powerStateSmoke runs the power-state sweep at fixed short windows and
// prints only result fingerprints — no floats, no wall times — so the
// output is byte-stable; CI diffs it against results/powerstate_smoke.txt.
func powerStateSmoke(ctx context.Context, eng *experiment.Engine) error {
	opts := experiment.RunOptions{
		Warmup:  1 * sim.Millisecond,
		Measure: 8 * sim.Millisecond,
	}
	sweep := experiment.RunPowerStateSweep(eng, nil, opts)
	sweep.RenderFingerprints(os.Stdout)
	vc, err := experiment.RunPowerStateVaultCheck(ctx, opts, []int{1, 8})
	if err != nil {
		return err
	}
	for i, s := range vc.Shards {
		fmt.Printf("%s/%s/shards=%d %s\n", vc.Config, vc.Policy, s, vc.Fingerprints[i])
	}
	if !vc.Deterministic {
		return fmt.Errorf("power-state vault check: fingerprints differ across shard counts")
	}
	return ctx.Err()
}
