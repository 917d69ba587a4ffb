package main

import (
	"errors"
	"fmt"
	"time"

	"smartrefresh/internal/cache"
	"smartrefresh/internal/config"
	"smartrefresh/internal/core"
	"smartrefresh/internal/dram"
	"smartrefresh/internal/experiment"
	"smartrefresh/internal/memctrl"
	"smartrefresh/internal/sim"
	"smartrefresh/internal/trace"
)

// The traced run rebuilds experiment's request loop from the layers'
// public calls and times each call. Three re-compositions keep it
// bit-identical to the engine's run, and all three hold only for policies
// that are not core.BankAware (those observe each demand before the
// controller drains, inside Submit):
//
//   - Controller.AdvanceTo(t) is called before each Submit at t, so the
//     drain Submit would do is split off and Submit's own drain is empty;
//   - the policy sits behind policyProbe, a delegating wrapper that does
//     not forward BankAware;
//   - vaults are driven one at a time through VaultArray.Route and
//     VaultArray.Vault(v), in the order FlushTo gives each epoch.
//
// Counts are exact. Times are sampled — one record in sampleEvery (a
// vault request is timed when its record was), one policy call in
// sampleEvery per phase — and scaled up by calls/sampled, which keeps the
// tracing overhead small.
const sampleEvery = 32

// maxRecordSpans is how many sampled records of the first traced run get
// per-record spans.
const maxRecordSpans = 256

var errBankAware = errors.New("traced run: policy is core.BankAware; the traced re-composition is exact only for policies that are not")

// now reads the monotonic clock only (time.Now also reads the wall
// clock, which doubles the cost of a timer).
func now() time.Duration { return time.Since(epoch) }

var epoch = time.Now()

// clock accumulates sampled call times. Every sampled interval is taken
// between two now calls and so also holds the cost of reading the clock
// once; est and perCallNs take that cost off (see tracedRun.timer).
type clock struct {
	calls, sampled uint64
	sum            time.Duration
	// dropped counts sampled intervals taken for interruptions.
	dropped uint64
}

// An interval that held a preemption or a stolen time slice would, scaled
// up by calls/sampled, swamp the estimate. So a sampled interval is
// dropped, and its call estimated by the mean of the others, when it is
// over maxSample, or over minOutlier and outlierFactor times the mean so
// far. No sampled call on these workloads legitimately takes a
// millisecond, and each kind's calls stay within a small factor of their
// mean.
const (
	maxSample     = time.Millisecond
	minOutlier    = 20 * time.Microsecond
	outlierFactor = 64
)

func (c *clock) add(d time.Duration) {
	if d > maxSample || (c.sampled >= 16 && d > minOutlier && d > outlierFactor*c.sum/time.Duration(c.sampled)) {
		c.dropped++
		return
	}
	c.sampled++
	c.sum += d
}

// perCallNs is the mean sampled call time less the clock cost cal.
func (c clock) perCallNs(cal float64) float64 {
	if c.sampled == 0 {
		return 0
	}
	return float64(c.sum.Nanoseconds())/float64(c.sampled) - cal
}

// est is the total time over every call, scaled from the sampled ones.
func (c clock) est(cal float64) float64 {
	return c.perCallNs(cal) * float64(c.calls) / 1e9
}

func (c *clock) merge(o clock) {
	c.calls += o.calls
	c.sampled += o.sampled
	c.sum += o.sum
	c.dropped += o.dropped
}

// phase says which controller call the policy is running under.
type phase int

const (
	inDrain phase = iota
	inSubmit
	inFinish
	numPhases
)

// policyProbe wraps the run's refresh policy, timing Advance and
// OnRowRestore and counting every call, per phase.
type policyProbe struct {
	core.Policy
	phase     phase
	advance   [numPhases]clock
	restore   [numPhases]clock
	commands  uint64
	nextTicks uint64
}

func newProbe(p core.Policy) (*policyProbe, error) {
	if _, ok := p.(core.BankAware); ok {
		return nil, fmt.Errorf("%w (%s)", errBankAware, p.Name())
	}
	return &policyProbe{Policy: p}, nil
}

func (p *policyProbe) Advance(t sim.Time, dst []core.Command) []core.Command {
	c := &p.advance[p.phase]
	c.calls++
	n := len(dst)
	if c.calls%sampleEvery == 0 {
		t0 := now()
		dst = p.Policy.Advance(t, dst)
		c.add(now() - t0)
	} else {
		dst = p.Policy.Advance(t, dst)
	}
	p.commands += uint64(len(dst) - n)
	return dst
}

func (p *policyProbe) OnRowRestore(t sim.Time, row dram.RowID) {
	c := &p.restore[p.phase]
	c.calls++
	if c.calls%sampleEvery == 0 {
		t0 := now()
		p.Policy.OnRowRestore(t, row)
		c.add(now() - t0)
		return
	}
	p.Policy.OnRowRestore(t, row)
}

func (p *policyProbe) NextTick() (sim.Time, bool) {
	p.nextTicks++
	return p.Policy.NextTick()
}

// tracedRun is what one traced run measured.
type tracedRun struct {
	res  experiment.RunResult
	runS float64 // wall
	cpuS float64 // process CPU

	// Set-up, each constructor timed once.
	setupSource, setupPolicy, setupController, setupVault, cacheNew time.Duration

	next, cacheAccess, mapper, drain, submit, enqueue clock
	// timer holds empty intervals taken on sampled records, in the
	// simulation's own cache state: the clock cost each sampled interval
	// carries.
	timer clock
	// drainExact is drain time measured on every call: the warmup
	// snapshot and, on vaulted runs, each vault's epoch-end AdvanceTo.
	drainExact time.Duration
	finish     time.Duration
	flush      time.Duration   // vaulted: the re-composed FlushTo calls
	busy       []time.Duration // vaulted: per-vault time inside flushes and finish
	work       []uint64        // vaulted: per-vault requests + refresh ops

	evaluate      time.Duration
	evaluateCalls int

	advance, restore    [numPhases]clock
	commands, nextTicks uint64

	dataAccesses uint64
	cacheHitRate float64
}

// tracer drives one traced run. log is nil except on the run whose spans
// are kept.
type tracer struct {
	w      benchWorkload
	seed   uint64
	log    *spanLog
	r      tracedRun
	probes []*policyProbe

	keptRecords int
}

// traceRun makes one traced run of w at seed.
func traceRun(w benchWorkload, seed uint64, log *spanLog) (*tracedRun, error) {
	t := &tracer{w: w, seed: seed, log: log}
	var err error
	if w.cfg.Geometry.Vaulted() {
		err = t.runVaulted()
	} else {
		err = t.runMono()
	}
	if err != nil {
		return nil, err
	}
	for _, p := range t.probes {
		for ph := range p.advance {
			t.r.advance[ph].merge(p.advance[ph])
			t.r.restore[ph].merge(p.restore[ph])
		}
		t.r.commands += p.commands
		t.r.nextTicks += p.nextTicks
	}
	return &t.r, nil
}

// keepSpans reports whether a sampled record gets per-record spans.
func (t *tracer) keepSpans() bool {
	if t.log == nil || t.keptRecords >= maxRecordSpans {
		return false
	}
	t.keptRecords++
	return true
}

// timedNext is Source.Next, timed when sample is set. A sampled call
// also measures one empty interval for the clock-cost calibration.
func (t *tracer) timedNext(src trace.Source, sample bool) (trace.Record, bool, time.Duration, time.Duration) {
	t.r.next.calls++
	if !sample {
		rec, ok := src.Next()
		return rec, ok, 0, 0
	}
	c0 := now()
	t0 := now()
	t.r.timer.add(t0 - c0)
	rec, ok := src.Next()
	t1 := now()
	t.r.next.add(t1 - t0)
	return rec, ok, t0, t1
}

// timedCache is DRAMCache.Access, timed when sample is set.
func (t *tracer) timedCache(front *cache.DRAMCache, rec trace.Record, sample bool, rid int64, n int64) cache.DRAMCacheResult {
	t.r.cacheAccess.calls++
	var res cache.DRAMCacheResult
	if sample {
		t0 := now()
		res = front.Access(rec.Time, rec.Addr, rec.Write)
		t1 := now()
		t.r.cacheAccess.add(t1 - t0)
		if rid != 0 {
			t.log.add("cache.access", t.log.newID(), rid, 0, t0, t1, n)
		}
	} else {
		res = front.Access(rec.Time, rec.Addr, rec.Write)
	}
	t.r.dataAccesses += uint64(len(res.DataAccesses))
	return res
}

// drive presents one request to a controller as AdvanceTo then Submit.
// On a sampled request it times both and an extra Mapper.Map call; rid,
// when non-zero, is the parent of the spans it records.
func (t *tracer) drive(ctl *memctrl.Controller, probe *policyProbe, req memctrl.Request, sample bool, rid int64, tid int, n int64) {
	t.r.drain.calls++
	t.r.submit.calls++
	t.r.mapper.calls++
	if !sample {
		probe.phase = inDrain
		ctl.AdvanceTo(req.Time)
		probe.phase = inSubmit
		ctl.Submit(req)
		return
	}
	t0 := now()
	mapSink = ctl.Mapper().Map(req.Addr)
	t1 := now()
	probe.phase = inDrain
	ctl.AdvanceTo(req.Time)
	t2 := now()
	probe.phase = inSubmit
	ctl.Submit(req)
	t3 := now()
	t.r.mapper.add(t1 - t0)
	t.r.drain.add(t2 - t1)
	t.r.submit.add(t3 - t2)
	if rid != 0 {
		t.log.add("memctrl.map (extra call)", t.log.newID(), rid, tid, t0, t1, n)
		t.log.add("memctrl.drain", t.log.newID(), rid, tid, t1, t2, n)
		t.log.add("memctrl.submit", t.log.newID(), rid, tid, t2, t3, n)
	}
}

// mapSink keeps the extra Mapper.Map calls from being optimised away.
var mapSink dram.Address

// exactDrain is AdvanceTo timed on every call.
func (t *tracer) exactDrain(ctl *memctrl.Controller, probe *policyProbe, at sim.Time) {
	probe.phase = inDrain
	t0 := now()
	ctl.AdvanceTo(at)
	t.r.drainExact += now() - t0
}

// setupSpans records a "setup" span under runID with one child per
// constructor: names[i] ran from marks[i] to marks[i+1].
func (t *tracer) setupSpans(runID int64, marks []time.Duration, names []string) {
	setupID := t.log.newID()
	for i, name := range names {
		t.log.add(name, t.log.newID(), setupID, 0, marks[i], marks[i+1], -1)
	}
	t.log.add("setup", setupID, runID, 0, marks[0], marks[len(names)], -1)
}

// runMono is experiment's monolithic execute, re-composed.
func (t *tracer) runMono() error {
	w, opts, r := t.w, t.w.opts, &t.r
	runID := t.log.newID()
	start := now()

	src := newSource(w.prof, opts.Stacked, streamSeed(w.prof, t.seed))
	t1 := now()
	probe, err := newProbe(experiment.NewPolicy(w.cfg, w.policy))
	if err != nil {
		return err
	}
	t.probes = append(t.probes, probe)
	t2 := now()
	ctl, err := memctrl.New(w.cfg, probe, memctrl.Options{
		SelfRefreshAfter: opts.SelfRefreshAfter,
		PowerStates:      opts.PowerStates,
	})
	if err != nil {
		return err
	}
	t3 := now()
	var front *cache.DRAMCache
	if opts.Stacked {
		front = cache.NewDRAMCache(config.Table2_3DCache())
	}
	t4 := now()
	r.setupSource, r.setupPolicy, r.setupController = t1-start, t2-t1, t3-t2
	names := []string{"setup.source", "setup.policy", "setup.controller"}
	if front != nil {
		r.cacheNew = t4 - t3
		names = append(names, "cache.new")
	}
	t.setupSpans(runID, []time.Duration{start, t1, t2, t3, t4}, names)

	end := opts.Warmup + opts.Measure
	warmModule, warmPolicy := ctl.Module().Stats(), probe.Stats()
	var warmDroppedSR uint64
	warmed := false
	snapshot := func(at sim.Time) {
		t.exactDrain(ctl, probe, at)
		ctl.Module().Finalize(at)
		warmModule, warmPolicy = ctl.Module().Stats(), probe.Stats()
		warmDroppedSR = ctl.RefreshesDroppedSelfRefresh()
		warmed = true
	}

	simID := t.log.newID()
	for n := int64(0); ; n++ {
		sample := n%sampleEvery == 0
		rec, ok, n0, n1 := t.timedNext(src, sample)
		if !ok || rec.Time >= end {
			break
		}
		var rid int64
		if sample && t.keepSpans() {
			rid = t.log.newID()
			t.log.add("workload.next", t.log.newID(), rid, 0, n0, n1, n)
		}
		if !warmed && rec.Time >= opts.Warmup {
			snapshot(rec.Time)
		}
		if opts.Stacked {
			res := t.timedCache(front, rec, sample, rid, n)
			for _, da := range res.DataAccesses {
				t.drive(ctl, probe, memctrl.Request{Time: da.Time, Addr: da.Addr, Write: da.Write}, sample, rid, 0, n)
			}
		} else {
			t.drive(ctl, probe, memctrl.Request{Time: rec.Time, Addr: rec.Addr, Write: rec.Write}, sample, rid, 0, n)
		}
		if rid != 0 {
			t.log.add("record", rid, simID, 0, n0, now(), n)
		}
	}
	if !warmed {
		snapshot(opts.Warmup)
	}
	simEnd := now()
	t.log.add("simulate", simID, runID, 0, t4, simEnd, -1)

	probe.phase = inFinish
	ctl.Finish(end)
	finEnd := now()
	r.finish = finEnd - simEnd
	t.log.add("memctrl.finish", t.log.newID(), runID, 0, simEnd, finEnd, -1)

	full := ctl.Results(end)
	full.Module = full.Module.Sub(warmModule)
	full.Policy = full.Policy.Sub(warmPolicy)
	full.RefreshesDroppedSelfRefresh -= warmDroppedSR
	e0 := now()
	full.Energy = w.cfg.Power.Evaluate(full.Module, full.Policy)
	e1 := now()
	r.evaluate, r.evaluateCalls = e1-e0, 1
	t.log.add("power.evaluate", t.log.newID(), runID, 0, e0, e1, -1)
	full.RefreshOps = full.Module.RefreshOps
	full.RefreshCBR = full.Module.RefreshCBROps
	full.RefreshRASOnly = full.Module.RefreshRASOnlyOps
	full.DemandStall = full.Module.DemandStall
	if opts.Measure > 0 {
		full.RefreshPerSecond = float64(full.Module.RefreshOps) / opts.Measure.Seconds()
	}
	r.res = experiment.RunResult{
		Benchmark:    w.prof.Name,
		Policy:       w.policy,
		Config:       w.cfg.Name,
		Window:       opts.Measure,
		Results:      full,
		RetentionErr: ctl.RetentionErr(),
	}
	stop := now()
	r.runS = (stop - start).Seconds()
	t.log.add("run", runID, 0, 0, start, stop, -1)
	if front != nil {
		r.cacheHitRate = front.Tags().Stats().HitRate()
	}
	return nil
}

// runVaulted is experiment's executeVaulted, re-composed: requests are
// routed with VaultArray.Route into per-vault buffers (Enqueue), and each
// epoch barrier (FlushTo) drives the vaults one after another.
func (t *tracer) runVaulted() error {
	w, opts, r := t.w, t.w.opts, &t.r
	if opts.Stacked {
		return fmt.Errorf("traced run: no vaulted workload runs behind the 3D cache")
	}
	runID := t.log.newID()
	start := now()

	src := newSource(w.prof, false, streamSeed(w.prof, t.seed))
	t1 := now()
	var policyTime time.Duration
	factory := func(_ int, vcfg config.DRAM) (core.Policy, error) {
		p0 := now()
		pol := experiment.NewPolicy(vcfg, w.policy)
		policyTime += now() - p0
		probe, err := newProbe(pol)
		if err != nil {
			return nil, err
		}
		t.probes = append(t.probes, probe)
		return probe, nil
	}
	va, err := memctrl.NewVaultArray(w.cfg, factory, memctrl.VaultOptions{
		Options: memctrl.Options{
			SelfRefreshAfter: opts.SelfRefreshAfter,
			PowerStates:      opts.PowerStates,
		},
		Workers: opts.Shards,
	})
	if err != nil {
		return err
	}
	t2 := now()
	r.setupSource, r.setupPolicy, r.setupVault = t1-start, policyTime, t2-t1-policyTime
	t.setupSpans(runID, []time.Duration{start, t1, t2}, []string{"setup.source", "setup.vault (policies included)"})

	// queued is one buffered request with the record it came from; a
	// request is timed when its record was, and its spans name the
	// record's span (rid) as their cause.
	type queued struct {
		req      memctrl.Request
		rec, rid int64
	}
	n := va.Vaults()
	pending := make([][]queued, n)
	r.busy = make([]time.Duration, n)
	simID := t.log.newID()
	flushTo := func(at sim.Time) {
		fid := t.log.newID()
		f0 := now()
		for v := 0; v < n; v++ {
			b0 := now()
			ctl, probe := va.Vault(v), t.probes[v]
			for _, q := range pending[v] {
				t.drive(ctl, probe, q.req, q.rec%sampleEvery == 0, q.rid, 1+v, q.rec)
			}
			pending[v] = pending[v][:0]
			t.exactDrain(ctl, probe, at)
			b1 := now()
			r.busy[v] += b1 - b0
			t.log.add(fmt.Sprintf("vault %02d", v), t.log.newID(), fid, 1+v, b0, b1, -1)
		}
		f1 := now()
		r.flush += f1 - f0
		t.log.add("memctrl.vault.flush", fid, simID, 0, f0, f1, -1)
	}

	end := opts.Warmup + opts.Measure
	epoch := w.cfg.RefreshInterval() / 4
	warmModule := make([]dram.ModuleStats, n)
	warmPolicy := make([]core.PolicyStats, n)
	warmDropped := make([]uint64, n)
	warmed := false
	snapshot := func(at sim.Time) {
		flushTo(at)
		for v := 0; v < n; v++ {
			ctl := va.Vault(v)
			ctl.Module().Finalize(at)
			warmModule[v] = ctl.Module().Stats()
			warmPolicy[v] = ctl.Policy().Stats()
			warmDropped[v] = ctl.RefreshesDroppedSelfRefresh()
		}
		warmed = true
	}

	next := sim.Time(epoch)
	for nrec := int64(0); ; nrec++ {
		sample := nrec%sampleEvery == 0
		rec, ok, n0, n1 := t.timedNext(src, sample)
		if !ok || rec.Time >= end {
			break
		}
		for next <= rec.Time && next < end {
			flushTo(next)
			next += sim.Time(epoch)
		}
		if !warmed && rec.Time >= opts.Warmup {
			snapshot(rec.Time)
			for next <= rec.Time {
				next += sim.Time(epoch)
			}
		}
		var rid int64
		if sample && t.keepSpans() {
			rid = t.log.newID()
			t.log.add("workload.next", t.log.newID(), rid, 0, n0, n1, nrec)
		}
		// VaultArray.Enqueue.
		r.enqueue.calls++
		var e0 time.Duration
		if sample {
			e0 = now()
		}
		v, local := va.Route(rec.Addr)
		pending[v] = append(pending[v], queued{memctrl.Request{Time: rec.Time, Addr: local, Write: rec.Write}, nrec, rid})
		if sample {
			e1 := now()
			r.enqueue.add(e1 - e0)
			if rid != 0 {
				t.log.add("memctrl.vault.enqueue", t.log.newID(), rid, 0, e0, e1, nrec)
				t.log.add("record", rid, simID, 0, n0, e1, nrec)
			}
		}
	}
	if !warmed {
		snapshot(opts.Warmup)
	}
	simEnd := now()
	t.log.add("simulate", simID, runID, 0, t2, simEnd, -1)

	// VaultArray.Finish: submit what is still buffered, then finish.
	for v := 0; v < n; v++ {
		b0 := now()
		ctl, probe := va.Vault(v), t.probes[v]
		probe.phase = inFinish
		for _, q := range pending[v] {
			ctl.Submit(q.req)
		}
		pending[v] = pending[v][:0]
		ctl.Finish(end)
		r.busy[v] += now() - b0
	}
	finEnd := now()
	r.finish = finEnd - simEnd
	t.log.add("memctrl.finish", t.log.newID(), runID, 0, simEnd, finEnd, -1)

	pvCfg := w.cfg
	pvCfg.Geometry = w.cfg.Geometry.PerVault()
	pvCfg.Power.Geometry = pvCfg.Geometry

	whole := va.Results(end)
	agg := memctrl.Results{
		Span:         whole.Span,
		AvgLatencyNS: whole.AvgLatencyNS,
		P50LatencyNS: whole.P50LatencyNS,
		P99LatencyNS: whole.P99LatencyNS,
	}
	perVault := make([]memctrl.Results, n)
	for v := 0; v < n; v++ {
		vr := va.Vault(v).Results(end)
		vr.Module = vr.Module.Sub(warmModule[v])
		vr.Policy = vr.Policy.Sub(warmPolicy[v])
		vr.RefreshesDroppedSelfRefresh -= warmDropped[v]
		e0 := now()
		vr.Energy = pvCfg.Power.Evaluate(vr.Module, vr.Policy)
		e1 := now()
		r.evaluate += e1 - e0
		r.evaluateCalls++
		t.log.add("power.evaluate", t.log.newID(), runID, 1+v, e0, e1, -1)
		vr.RefreshOps = vr.Module.RefreshOps
		vr.RefreshCBR = vr.Module.RefreshCBROps
		vr.RefreshRASOnly = vr.Module.RefreshRASOnlyOps
		vr.RefreshPerBank = vr.Module.RefreshPerBankOps
		vr.DemandStall = vr.Module.DemandStall
		if opts.Measure > 0 {
			vr.RefreshPerSecond = float64(vr.Module.RefreshOps) / opts.Measure.Seconds()
		}
		perVault[v] = vr

		agg.Requests += vr.Requests
		agg.RowHits += vr.RowHits
		agg.RefreshesDroppedSelfRefresh += vr.RefreshesDroppedSelfRefresh
		agg.Module = agg.Module.Add(vr.Module)
		agg.Policy = agg.Policy.Add(vr.Policy)
		agg.Energy = agg.Energy.Add(vr.Energy)
	}
	agg.RefreshOps = agg.Module.RefreshOps
	agg.RefreshCBR = agg.Module.RefreshCBROps
	agg.RefreshRASOnly = agg.Module.RefreshRASOnlyOps
	agg.RefreshPerBank = agg.Module.RefreshPerBankOps
	agg.DemandStall = agg.Module.DemandStall
	if opts.Measure > 0 {
		agg.RefreshPerSecond = float64(agg.Module.RefreshOps) / opts.Measure.Seconds()
	}
	r.res = experiment.RunResult{
		Benchmark:    w.prof.Name,
		Policy:       w.policy,
		Config:       w.cfg.Name,
		Window:       opts.Measure,
		Results:      agg,
		Vaults:       perVault,
		RetentionErr: va.RetentionErr(),
	}
	stop := now()
	r.runS = (stop - start).Seconds()
	t.log.add("run", runID, 0, 0, start, stop, -1)

	r.work = make([]uint64, n)
	for v := 0; v < n; v++ {
		r.work[v] = perVault[v].Requests + va.Vault(v).Module().Stats().RefreshOps
	}
	return nil
}
