package experiment

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"smartrefresh/internal/config"
	"smartrefresh/internal/core"
	"smartrefresh/internal/telemetry"
	"smartrefresh/internal/trace"
	"smartrefresh/internal/workload"
)

// RunSpec identifies one simulation run by value: one of the four
// evaluated configurations, one paper benchmark by name, one policy, and
// the run options. Specs normalise to a canonical form (window defaults
// applied, the stacked flag derived from the configuration), so two specs
// describing the same work compare equal — which is what makes a RunSpec
// the Engine's memoisation key.
type RunSpec struct {
	Config    ConfigKind
	Benchmark string
	Policy    PolicyKind
	Opts      RunOptions
}

// normalize returns the canonical form of the spec: run-option defaults
// resolved against the configuration's refresh interval and the stacked
// flag forced to the configuration's front-end.
func (s RunSpec) normalize() RunSpec {
	s.Opts = s.Opts.withDefaults(s.Config.DRAM().RefreshInterval())
	s.Opts.Stacked = s.Config.Stacked()
	return s
}

// Key renders the canonical cache key. Two specs with equal keys receive
// the same memoised result. Opts.Shards is deliberately absent: a
// vaulted run's results are bit-identical at every shard count (see
// memctrl.VaultArray), so two specs differing only in Shards describe
// the same work and share one simulation.
func (s RunSpec) Key() string {
	n := s.normalize()
	key := fmt.Sprintf("%s/%s/%s/w%d/m%d/ret%v/sr%d",
		n.Config, n.Benchmark, n.Policy,
		int64(n.Opts.Warmup), int64(n.Opts.Measure),
		n.Opts.CheckRetention, int64(n.Opts.SelfRefreshAfter))
	if ps := n.Opts.PowerStates; ps.Enabled() {
		// Appended only when armed, so every pre-existing key — and any
		// memo or artifact derived from one — is byte-identical.
		key += fmt.Sprintf("/ps%d-%d-%d-%d",
			int64(ps.ActPdnAfter), int64(ps.PrePdnFastAfter),
			int64(ps.PrePdnSlowAfter), int64(ps.SRSlowAfter))
	}
	return key
}

// profile resolves the spec's benchmark name.
func (s RunSpec) profile() (workload.Profile, error) {
	return workload.ByName(s.Benchmark)
}

// Job is one fully-specified simulation for Engine.RunJobs. Unlike a
// RunSpec it carries an arbitrary configuration (the ablation studies
// sweep non-preset configs) and optional policy/source constructors, so
// it is executed without memoisation. The constructors run inside the
// job, giving each run its own policy and generator state.
type Job struct {
	Cfg    config.DRAM
	Prof   workload.Profile
	Policy PolicyKind
	Opts   RunOptions
	// MakePolicy, when non-nil, overrides the Policy kind's constructor.
	// It is required for the kinds NewPolicy cannot build (PolicyRAIDR,
	// PolicySmartRetention); Policy then names the run and selects its
	// retention slack.
	MakePolicy func() core.Policy
	// MakeSource, when non-nil, overrides the profile's access stream.
	MakeSource func() trace.Source
	// RetentionMap, when non-nil together with Opts.CheckRetention,
	// gives the run's retention checker per-row deadlines (the
	// retention-aware and raidr studies check the multirate invariant,
	// not the uniform base deadline).
	RetentionMap *core.RetentionMap
}

// JobEvent describes one engine job to the instrumentation hooks.
type JobEvent struct {
	Config    string
	Benchmark string
	Policy    PolicyKind
	// Cached marks a memoised result returned without simulating.
	Cached bool
	// Wall is the job's simulation wall time (zero on start events and
	// cache hits).
	Wall time.Duration
}

// EngineStats counts the engine's work since construction.
type EngineStats struct {
	// Started is the number of jobs handed to a worker.
	Started int
	// Finished is the number of jobs that completed a simulation.
	Finished int
	// CacheHits is the number of memoised results served without
	// simulating.
	CacheHits int
	// SimWall is the summed per-job simulation wall time (across all
	// workers, so it exceeds elapsed time when running in parallel).
	SimWall time.Duration
}

// Engine executes simulation jobs across a bounded worker pool and
// memoises RunSpec results, so sweeps that share runs (Figures 6/7/8 and
// friends) simulate each (config, benchmark, policy) combination exactly
// once. Results are deterministic and independent of the worker count:
// every job builds its own controller, module, policy and generator, and
// batch results are ordered by job index, never by completion order.
//
// An Engine is safe for concurrent use once running; configure Workers
// and the hooks before submitting the first job.
type Engine struct {
	// Workers bounds the worker pool; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// JobTimeout, when positive, bounds each job's simulation wall time
	// with a per-job deadline. A job that exceeds it reports a
	// DeadlineExceeded error (through the error return on the memoised
	// path, through RunResult.Err on the RunJobs path); the rest of the
	// batch is unaffected.
	JobTimeout time.Duration
	// Retries re-attempts a RunJobs job that returned a non-nil
	// RunResult.Err, up to this many extra times. Cancellation is never
	// retried: once the batch context is done, failed jobs are returned
	// as-is. Memoised Run results are never retried either — the
	// simulations are deterministic, so a genuine failure would simply
	// repeat.
	Retries int
	// Checkpoint, when non-nil, persists every completed memoised result
	// and pre-warms the memo: a spec whose key is already in the
	// checkpoint is served as a cache hit without simulating. This is
	// what makes an interrupted sweep resumable; see Checkpoint.
	Checkpoint *Checkpoint
	// Ctx is the base context used by the context-free entry points
	// (Run, RunAll, RunJobs) — and therefore by every consumer that
	// predates cancellation, such as the ablation studies. Nil means
	// context.Background(). The *Context methods ignore it and use their
	// argument.
	Ctx context.Context
	// OnJobStart and OnJobDone, when non-nil, observe jobs as they begin
	// and finish (including cache hits). The engine serialises hook
	// invocations, so the callbacks need not be goroutine-safe.
	OnJobStart func(JobEvent)
	OnJobDone  func(JobEvent)

	// Trace, when non-nil, records every simulated job's DRAM commands
	// (one scope per job) plus a wall-clock span per job on the engine
	// process row. Telemetry lives on the engine — not in RunOptions —
	// so RunSpec stays comparable and the memo keys are unaffected.
	Trace *telemetry.Tracer
	// Metrics, when non-nil, has every job's controller metrics (under
	// "<config>/<benchmark>/<policy>/...") and the engine's own counters
	// registered into it. Memoised re-runs replace rather than duplicate
	// their rows.
	Metrics *telemetry.Registry

	mu sync.Mutex
	// memo is keyed by RunSpec.Key() rather than the spec value, so
	// specs differing only in fields the key excludes (Opts.Shards)
	// share one flight.
	memo  map[string]*memoEntry
	stats EngineStats

	hookMu      sync.Mutex
	metricsOnce sync.Once
}

// memoEntry is a singleflight slot: the first claimant simulates and
// closes done; later claimants wait on done and read res/err. A panic in
// the simulation is converted into err for every claimant — done is
// closed unconditionally (in a defer), so waiters can never hang on a
// failed flight.
type memoEntry struct {
	done chan struct{}
	res  RunResult
	err  error
}

// NewEngine returns an engine with the given worker bound (<= 0 means
// one worker per CPU).
func NewEngine(workers int) *Engine { return &Engine{Workers: workers} }

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// registerEngineMetrics publishes the engine's own counters into the
// configured registry, once, on first job submission.
func (e *Engine) registerEngineMetrics() {
	// The nil check stays outside the Once so the disabled path costs a
	// pointer compare, not a closure allocation per job.
	if e.Metrics == nil {
		return
	}
	e.metricsOnce.Do(func() {
		e.Metrics.RegisterGauge("engine/jobs_started", func() float64 { return float64(e.Stats().Started) })
		e.Metrics.RegisterGauge("engine/jobs_finished", func() float64 { return float64(e.Stats().Finished) })
		e.Metrics.RegisterGauge("engine/cache_hits", func() float64 { return float64(e.Stats().CacheHits) })
		e.Metrics.RegisterGauge("engine/sim_wall_seconds", func() float64 { return e.Stats().SimWall.Seconds() })
	})
}

// closedDone is the pre-closed singleflight channel used for memo
// entries restored from a checkpoint: there is no flight to wait for.
var closedDone = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Run returns the result for one spec, simulating it at most once per
// engine lifetime. Concurrent calls with equal (canonicalised) specs
// share a single simulation; the duplicates count as cache hits.
func (e *Engine) Run(spec RunSpec) (RunResult, error) {
	return e.RunContext(e.baseCtx(), spec)
}

// RunContext is Run with cooperative cancellation. The simulation loop
// checks the context at record and tick/advance boundaries, so a
// cancelled sweep stops within microseconds of simulated progress rather
// than after the current job. A job aborted by the parent context is
// removed from the memo — its partial state must never be served later —
// whereas a job that merely exceeded Engine.JobTimeout stays memoised as
// a failure (re-running a deterministic simulation would time out
// again).
func (e *Engine) RunContext(ctx context.Context, spec RunSpec) (RunResult, error) {
	spec = spec.normalize()
	prof, err := spec.profile()
	if err != nil {
		return RunResult{}, err
	}
	if err := ctx.Err(); err != nil {
		return RunResult{}, err
	}

	key := spec.Key()
	e.mu.Lock()
	if ent, ok := e.memo[key]; ok {
		e.stats.CacheHits++
		e.mu.Unlock()
		select {
		case <-ent.done:
		case <-ctx.Done():
			return RunResult{}, ctx.Err()
		}
		e.emit(e.OnJobDone, spec.Config.String(), spec.Benchmark, spec.Policy, true, 0)
		return ent.res, ent.err
	}
	if e.memo == nil {
		e.memo = map[string]*memoEntry{}
	}
	if res, ok := e.Checkpoint.lookup(key); ok {
		// Completed in a previous (interrupted) sweep: pre-warm the memo
		// and serve it as a cache hit.
		e.memo[key] = &memoEntry{done: closedDone, res: res}
		e.stats.CacheHits++
		e.mu.Unlock()
		e.emit(e.OnJobDone, spec.Config.String(), spec.Benchmark, spec.Policy, true, 0)
		return res, nil
	}
	ent := &memoEntry{done: make(chan struct{})}
	e.memo[key] = ent
	e.stats.Started++
	e.mu.Unlock()

	e.registerEngineMetrics()
	e.emit(e.OnJobStart, spec.Config.String(), spec.Benchmark, spec.Policy, false, 0)

	jobCtx := ctx
	if e.JobTimeout > 0 {
		var cancel context.CancelFunc
		jobCtx, cancel = context.WithTimeout(ctx, e.JobTimeout)
		defer cancel()
	}
	jobStart := e.Trace.JobStart()
	start := time.Now()
	func() {
		// Close done even if the simulation panics (e.g. an option
		// combination the controller rejects); otherwise every concurrent
		// claimant of this spec would wait forever.
		defer func() {
			if r := recover(); r != nil {
				ent.err = fmt.Errorf("experiment: run %s panicked: %v", spec.Key(), r)
			}
			close(ent.done)
		}()
		cfg := spec.Config.DRAM()
		j := runJob{
			cfg:       cfg,
			benchmark: spec.Benchmark,
			kind:      spec.Policy,
			source:    prof.NewSource(spec.Opts.Stacked),
			opts:      spec.Opts, // normalize() already applied defaults
			trace:     e.Trace,
			metrics:   e.Metrics,
		}
		if !cfg.Geometry.Vaulted() {
			// Vaulted runs construct per-vault policies in executeVaulted.
			j.policy = NewPolicy(cfg, spec.Policy)
		}
		ent.res, ent.err = execute(jobCtx, j)
	}()
	wall := time.Since(start)

	if ent.err != nil && ctx.Err() != nil {
		// Aborted by the caller, not by the job: forget the flight so a
		// later call (or a resumed engine) re-simulates, and do not count
		// it as finished work.
		e.mu.Lock()
		delete(e.memo, key)
		e.mu.Unlock()
		return RunResult{}, ent.err
	}

	if e.Trace.Enabled() {
		e.Trace.JobSpan(spec.Config.String()+"/"+spec.Benchmark+"/"+spec.Policy.String(), jobStart, wall)
	}
	e.finish(wall)
	e.emit(e.OnJobDone, spec.Config.String(), spec.Benchmark, spec.Policy, false, wall)
	if ent.err == nil {
		if cerr := e.Checkpoint.record(key, ent.res); cerr != nil {
			// The result is valid but not durably recorded; surface the
			// I/O failure instead of promising a resumable sweep.
			return ent.res, cerr
		}
	}
	return ent.res, ent.err
}

// RunAll executes the specs across the worker pool and returns their
// results in spec order: result i belongs to specs[i] for any worker
// count. Duplicate and previously-run specs are served from the memo.
func (e *Engine) RunAll(specs []RunSpec) ([]RunResult, error) {
	return e.RunAllContext(e.baseCtx(), specs)
}

// RunAllContext is RunAll with cooperative cancellation: once ctx is
// done, in-flight jobs abort at their next cancellation point, remaining
// jobs are skipped, and the batch returns the context's error. Partial
// results are never returned — a resumed sweep re-derives them from the
// engine memo and checkpoint instead.
func (e *Engine) RunAllContext(ctx context.Context, specs []RunSpec) ([]RunResult, error) {
	out := make([]RunResult, len(specs))
	errs := make([]error, len(specs))
	e.forEach(len(specs), func(i int) {
		out[i], errs[i] = e.RunContext(ctx, specs[i])
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RunJobs executes fully-specified jobs across the worker pool without
// memoisation (their configurations need not be presets), returning
// results in job order.
func (e *Engine) RunJobs(jobs []Job) []RunResult {
	return e.RunJobsContext(e.baseCtx(), jobs)
}

// RunJobsContext is RunJobs with cooperative cancellation and bounded
// retry: a job whose RunResult.Err is non-nil is re-attempted up to
// Engine.Retries extra times, but never once ctx is done — cancelled
// jobs come back with Err set to the context's error, in job order like
// every other result.
func (e *Engine) RunJobsContext(ctx context.Context, jobs []Job) []RunResult {
	out := make([]RunResult, len(jobs))
	e.forEach(len(jobs), func(i int) {
		out[i] = e.runJob(ctx, jobs[i])
	})
	return out
}

func (e *Engine) runJob(ctx context.Context, job Job) RunResult {
	res := e.runJobOnce(ctx, job)
	for retry := 0; retry < e.Retries && res.Err != nil && ctx.Err() == nil; retry++ {
		res = e.runJobOnce(ctx, job)
	}
	return res
}

func (e *Engine) runJobOnce(ctx context.Context, job Job) RunResult {
	failed := func(err error) RunResult {
		return RunResult{Benchmark: job.Prof.Name, Policy: job.Policy, Config: job.Cfg.Name, Err: err}
	}
	if err := ctx.Err(); err != nil {
		return failed(err)
	}
	opts := job.Opts.withDefaults(job.Cfg.RefreshInterval())
	vaulted := job.Cfg.Geometry.Vaulted()
	if vaulted && (job.RetentionMap != nil || job.MakePolicy != nil) {
		// The vaulted path constructs per-vault policies from the kind:
		// one policy instance cannot be distributed across vaults, and a
		// per-row retention map is indexed against the monolithic
		// geometry (reslicing it per vault is future work).
		what := "MakePolicy overrides are"
		if job.RetentionMap != nil {
			what = "per-row retention maps are"
		}
		return failed(fmt.Errorf("experiment: job %s/%s/%s: %s not supported on vaulted geometries",
			job.Cfg.Name, job.Prof.Name, job.Policy, what))
	}
	policy := job.MakePolicy
	if policy == nil {
		policy = func() core.Policy { return NewPolicy(job.Cfg, job.Policy) }
	}
	source := job.MakeSource
	if source == nil {
		source = func() trace.Source { return job.Prof.NewSource(opts.Stacked) }
	}

	e.mu.Lock()
	e.stats.Started++
	e.mu.Unlock()
	e.registerEngineMetrics()
	e.emit(e.OnJobStart, job.Cfg.Name, job.Prof.Name, job.Policy, false, 0)

	jobCtx := ctx
	if e.JobTimeout > 0 {
		var cancel context.CancelFunc
		jobCtx, cancel = context.WithTimeout(ctx, e.JobTimeout)
		defer cancel()
	}
	jobStart := e.Trace.JobStart()
	start := time.Now()
	var res RunResult
	func() {
		// A job with a rejected configuration (or a panicking constructor)
		// must not take down the worker pool — and with it every other
		// job in the batch; it reports through RunResult.Err instead.
		defer func() {
			if r := recover(); r != nil {
				res = failed(fmt.Errorf("experiment: job %s/%s/%s panicked: %v",
					job.Cfg.Name, job.Prof.Name, job.Policy, r))
			}
		}()
		j := runJob{
			cfg:       job.Cfg,
			benchmark: job.Prof.Name,
			kind:      job.Policy,
			source:    source(),
			opts:      opts,
			retMap:    job.RetentionMap,
			trace:     e.Trace,
			metrics:   e.Metrics,
		}
		if !vaulted {
			j.policy = policy()
		}
		var err error
		res, err = execute(jobCtx, j)
		if err != nil {
			res = failed(err)
		}
	}()
	wall := time.Since(start)

	if res.Err != nil && ctx.Err() != nil {
		// Aborted by the caller: not finished work, and nothing the
		// instrumentation should count.
		return res
	}

	if e.Trace.Enabled() {
		e.Trace.JobSpan(job.Cfg.Name+"/"+job.Prof.Name+"/"+job.Policy.String(), jobStart, wall)
	}
	e.finish(wall)
	e.emit(e.OnJobDone, job.Cfg.Name, job.Prof.Name, job.Policy, false, wall)
	return res
}

func (e *Engine) finish(wall time.Duration) {
	e.mu.Lock()
	e.stats.Finished++
	e.stats.SimWall += wall
	e.mu.Unlock()
}

func (e *Engine) emit(hook func(JobEvent), cfg, benchmark string, kind PolicyKind, cached bool, wall time.Duration) {
	if hook == nil {
		return
	}
	e.hookMu.Lock()
	defer e.hookMu.Unlock()
	hook(JobEvent{Config: cfg, Benchmark: benchmark, Policy: kind, Cached: cached, Wall: wall})
}

func (e *Engine) baseCtx() context.Context {
	if e.Ctx != nil {
		return e.Ctx
	}
	return context.Background()
}

func (e *Engine) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// forEach runs fn(0..n-1) across the worker pool. Workers claim indices
// from a shared counter; each index is processed exactly once.
func (e *Engine) forEach(n int, fn func(int)) {
	w := e.workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
