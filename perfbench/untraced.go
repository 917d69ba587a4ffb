package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"smartrefresh/internal/check"
	"smartrefresh/internal/experiment"
	"smartrefresh/internal/trace"
)

// runSample is what one end-to-end run measures, in wall seconds and in
// process CPU seconds (user+sys, all threads). The run is split at the
// first record request: set-up before it, the simulate phase after.
type runSample struct {
	runS, setupS, simS          float64 // wall
	cpuRunS, cpuSetupS, cpuSimS float64 // process CPU
	reqs                        uint64  // demand requests that reached the controller(s)

	allocBytes uint64
	allocs     uint64

	fingerprint string
	err         error // Err or RetentionErr of the run
}

// firstRecord marks the end of set-up: the engine asks for the first
// record only after it has built the policy, the controller or vault
// array and the 3D cache front end.
type firstRecord struct {
	src  trace.Source
	seen bool
	at   time.Time
	cpu  float64
}

func (f *firstRecord) Next() (trace.Record, bool) {
	if !f.seen {
		f.seen = true
		f.at = time.Now()
		f.cpu = cpuSeconds()
	}
	return f.src.Next()
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// maxRSSMB is the process's peak resident set so far: VmHWM, which,
// unlike getrusage's ru_maxrss, does not carry over the resident set of
// the process that exec'd this one.
func maxRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// job is the workload as one experiment.Job whose stream comes from seed.
func (w benchWorkload) job(seed uint64, first *firstRecord) experiment.Job {
	s := streamSeed(w.prof, seed)
	return experiment.Job{
		Cfg:    w.cfg,
		Prof:   w.prof,
		Policy: w.policy,
		Opts:   w.opts,
		MakeSource: func() trace.Source {
			first.src = newSource(w.prof, w.opts.Stacked, s)
			return first
		},
	}
}

// runUntraced runs the workload once through the public engine path, one
// job on a one-worker engine, with no telemetry attached.
func runUntraced(w benchWorkload, seed uint64) runSample {
	var first firstRecord
	eng := experiment.NewEngine(1)
	jobs := []experiment.Job{w.job(seed, &first)}

	// Collect earlier runs' garbage first, so no run pays for another's.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpuStart := cpuSeconds()
	start := time.Now()
	res := eng.RunJobsContext(context.Background(), jobs)[0]
	stop := time.Now()
	cpuStop := cpuSeconds()
	runtime.ReadMemStats(&m1)

	s := runSample{
		runS:       stop.Sub(start).Seconds(),
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		allocs:     m1.Mallocs - m0.Mallocs,
	}
	s.err = runErr(res)
	if s.err != nil {
		return s
	}
	s.setupS = first.at.Sub(start).Seconds()
	s.simS = stop.Sub(first.at).Seconds()
	s.cpuRunS = cpuStop - cpuStart
	s.cpuSetupS = first.cpu - cpuStart
	s.cpuSimS = cpuStop - first.cpu
	s.reqs = res.Results.Requests
	s.fingerprint = check.Fingerprint(res)
	return s
}

// runReference runs the workload at the profile's own seed through
// experiment.RunContext, the plain library path, and returns the
// fingerprint every seed-0 run must match.
func runReference(w benchWorkload) (string, error) {
	res, err := experiment.RunContext(context.Background(), w.cfg, w.prof, w.policy, w.opts)
	if err != nil {
		return "", err
	}
	if err := runErr(res); err != nil {
		return "", err
	}
	return check.Fingerprint(res), nil
}

// runRetention runs a short window of the workload with the retention
// checker attached: every row must be restored within its deadline.
func runRetention(w benchWorkload, seed uint64) error {
	var first firstRecord
	job := w.job(seed, &first)
	interval := w.cfg.RefreshInterval()
	job.Opts.Warmup = interval
	job.Opts.Measure = 2 * interval
	job.Opts.CheckRetention = true
	res := experiment.NewEngine(1).RunJobsContext(context.Background(), []experiment.Job{job})[0]
	return runErr(res)
}

func runErr(res experiment.RunResult) error {
	if res.Err != nil {
		return res.Err
	}
	if res.RetentionErr != nil {
		return fmt.Errorf("retention: %w", res.RetentionErr)
	}
	return nil
}
