package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"smartrefresh/internal/atomicio"
	"smartrefresh/internal/check"
)

// layerUnits lists every per-layer metric with its unit, in the order a
// request passes the layers. A layer the workload does not use reports 0.
var layerUnits = []struct{ name, unit string }{
	{"setup.source_s", "s"},
	{"setup.policy_s", "s"},
	{"setup.controller_s", "s"},
	{"setup.vault_s", "s"},
	{"workload.next_ns", "ns"},
	{"cache.new_s", "s"},
	{"cache.access_ns", "ns"},
	{"cache.hit_ratio", "ratio"},
	{"cache.data_accesses_per_access", "ratio"},
	{"memctrl.map_ns", "ns"},
	{"memctrl.submit_ns", "ns"},
	{"memctrl.submit_share", "ratio"},
	{"memctrl.drain_s", "s"},
	{"memctrl.drain_share", "ratio"},
	{"memctrl.drain_self_s", "s"},
	{"memctrl.drain_ns_per_event", "ns"},
	{"memctrl.finish_s", "s"},
	{"core.advance_ns", "ns"},
	{"core.advance_calls", "count"},
	{"core.commands", "count"},
	{"core.nexttick_calls", "count"},
	{"core.restore_ns", "ns"},
	{"core.restores", "count"},
	{"core.self_s", "s"},
	{"dram.row_hit_ratio", "ratio"},
	{"dram.refresh_ops", "count"},
	{"dram.powerdown_entries", "count"},
	{"memctrl.vault.enqueue_ns", "ns"},
	{"memctrl.vault.flush_s", "s"},
	{"memctrl.vault.busy_s_sum", "s"},
	{"memctrl.vault.busy_s_max", "s"},
	{"memctrl.vault.parallel_eff", "ratio"},
	{"memctrl.vault.work_imbalance", "ratio"},
	{"power.evaluate_us", "us"},
	{"bench.traced_run_s", "s"},
	{"bench.untimed_share", "ratio"},
	{"bench.trace_overhead_pct", "%"},
}

// cal is the clock cost in ns each sampled interval carries.
func (r *tracedRun) cal() float64 { return r.timer.perCallNs(0) }

// est is c's total time over every call.
func (r *tracedRun) est(c clock) float64 { return c.est(r.cal()) }

// perCallNs is c's mean time per call.
func (r *tracedRun) perCallNs(c clock) float64 { return c.perCallNs(r.cal()) }

// coreIn is the estimated time inside the policy under one phase.
func (r *tracedRun) coreIn(p phase) float64 { return r.est(r.advance[p]) + r.est(r.restore[p]) }

func (r *tracedRun) coreSelf() float64 {
	var s float64
	for p := phase(0); p < numPhases; p++ {
		s += r.coreIn(p)
	}
	return s
}

// drainS is the whole time in the drains split off Submit, policy included.
func (r *tracedRun) drainS() float64 { return r.est(r.drain) + r.drainExact.Seconds() }

// shareRow is one line of the self-time table.
type shareRow struct {
	layer string
	selfS float64
}

// shares splits the traced run's wall time into per-layer self times
// (a layer's time minus the time of the layers it calls) plus the untimed
// remainder: loop glue, warmup snapshots, results assembly and the
// timers' own cost. The rows add up to runS by construction.
func (r *tracedRun) shares() []shareRow {
	rows := []shareRow{
		{"setup.source", r.setupSource.Seconds()},
		{"setup.policy", r.setupPolicy.Seconds()},
		{"setup.controller", r.setupController.Seconds()},
		{"setup.vault", r.setupVault.Seconds()},
		{"cache.new", r.cacheNew.Seconds()},
		{"workload.next", r.est(r.next)},
		{"cache.access", r.est(r.cacheAccess)},
		{"memctrl.vault.enqueue", r.est(r.enqueue)},
		{"memctrl.map (in submit)", r.est(r.mapper)},
		{"memctrl.submit (self)", r.est(r.submit) - r.est(r.mapper) - r.coreIn(inSubmit)},
		{"memctrl.drain (self)", r.drainS() - r.coreIn(inDrain)},
		{"core (policy)", r.coreSelf()},
		{"memctrl.finish (self)", r.finish.Seconds() - r.coreIn(inFinish)},
		{"power.evaluate", r.evaluate.Seconds()},
	}
	if r.busy != nil {
		// Everything in the flushes that is not a drain or a submit.
		rows = append(rows, shareRow{"memctrl.vault.flush (self)", r.flush.Seconds() - r.drainS() - r.est(r.submit)})
	}
	var sum float64
	for _, row := range rows {
		sum += row.selfS
	}
	return append(rows, shareRow{"untimed remainder", r.runS - sum})
}

// layerMetrics derives the per-layer metrics of one traced run. plainSimS
// is the untraced runs' median simulate-phase wall time, the base of the
// vault parallel efficiency.
func (r *tracedRun) layerMetrics(shards int, plainSimS float64) map[string]float64 {
	res := r.res.Results
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var remainder float64
	if rows := r.shares(); len(rows) > 0 {
		remainder = rows[len(rows)-1].selfS
	}
	var advance, restore clock
	for p := phase(0); p < numPhases; p++ {
		advance.merge(r.advance[p])
		restore.merge(r.restore[p])
	}
	drainSelf := r.drainS() - r.coreIn(inDrain)
	m := map[string]float64{
		"setup.source_s":                 r.setupSource.Seconds(),
		"setup.policy_s":                 r.setupPolicy.Seconds(),
		"setup.controller_s":             r.setupController.Seconds(),
		"setup.vault_s":                  r.setupVault.Seconds(),
		"workload.next_ns":               r.perCallNs(r.next),
		"cache.new_s":                    r.cacheNew.Seconds(),
		"cache.access_ns":                r.perCallNs(r.cacheAccess),
		"cache.hit_ratio":                r.cacheHitRate,
		"cache.data_accesses_per_access": ratio(float64(r.dataAccesses), float64(r.cacheAccess.calls)),
		"memctrl.map_ns":                 r.perCallNs(r.mapper),
		"memctrl.submit_ns":              r.perCallNs(r.submit),
		"memctrl.submit_share":           ratio(r.est(r.submit), r.runS),
		"memctrl.drain_s":                r.drainS(),
		"memctrl.drain_share":            ratio(r.drainS(), r.runS),
		"memctrl.drain_self_s":           drainSelf,
		"memctrl.drain_ns_per_event":     ratio(drainSelf*1e9, float64(r.nextTicks)),
		"memctrl.finish_s":               r.finish.Seconds(),
		"core.advance_ns":                r.perCallNs(advance),
		"core.advance_calls":             float64(advance.calls),
		"core.commands":                  float64(r.commands),
		"core.nexttick_calls":            float64(r.nextTicks),
		"core.restore_ns":                r.perCallNs(restore),
		"core.restores":                  float64(restore.calls),
		"core.self_s":                    r.coreSelf(),
		"dram.row_hit_ratio":             ratio(float64(res.RowHits), float64(res.Requests)),
		"dram.refresh_ops":               float64(res.RefreshOps),
		"dram.powerdown_entries":         float64(res.Module.PowerDownEntries + res.Module.SelfRefreshEntries),
		"memctrl.vault.enqueue_ns":       r.perCallNs(r.enqueue),
		"power.evaluate_us":              ratio(r.evaluate.Seconds()*1e6, float64(r.evaluateCalls)),
		"bench.traced_run_s":             r.runS,
		"bench.untimed_share":            ratio(remainder, r.runS),
	}
	if r.busy != nil {
		var sum, max time.Duration
		for _, b := range r.busy {
			sum += b
			if b > max {
				max = b
			}
		}
		var total, top uint64
		for _, wk := range r.work {
			total += wk
			if wk > top {
				top = wk
			}
		}
		m["memctrl.vault.flush_s"] = r.flush.Seconds()
		m["memctrl.vault.busy_s_sum"] = sum.Seconds()
		m["memctrl.vault.busy_s_max"] = max.Seconds()
		m["memctrl.vault.parallel_eff"] = ratio(sum.Seconds(), float64(shards)*plainSimS)
		m["memctrl.vault.work_imbalance"] = ratio(float64(top), float64(total)/float64(len(r.work)))
	}
	return m
}

// minTracedRuns is the fewest traced runs the medians are taken over.
const minTracedRuns = 3

// traced alternates untraced and traced runs for the budget, checks that
// every traced run fingerprints like the untraced ones, and reports the
// per-layer medians. It writes the first traced run's spans and the
// median traced run's self-time table under outDir.
func (b *bench) traced(outDir string) (result, error) {
	b.reference()
	b.retention()
	var plain []runSample
	var runs []*tracedRun
	var log *spanLog // the first successful traced run's spans
	start := time.Now()
	for time.Since(start) < b.budget || len(runs) < minTracedRuns {
		if s := b.untraced(); s.err == nil {
			plain = append(plain, s)
		}
		b.attempted++
		var keep *spanLog
		if len(runs) == 0 {
			log = &spanLog{}
			keep = log
		}
		runtime.GC()
		cpu0 := cpuSeconds()
		r, err := traceRun(b.w, b.seed, keep)
		if r != nil {
			r.cpuS = cpuSeconds() - cpu0
		}
		if errors.Is(err, errBankAware) {
			return result{}, err
		}
		if err == nil {
			err = runErr(r.res)
		}
		if err != nil {
			b.fail("traced run", err)
		} else {
			b.checkFingerprint("traced run", check.Fingerprint(r.res))
			runs = append(runs, r)
		}
		if (len(runs) == 0 || len(plain) == 0) && b.failed > 0 {
			return result{}, fmt.Errorf("%s: traced or untraced run failed", b.w.name)
		}
	}

	plainCPU := make([]float64, len(plain))
	plainSimS := make([]float64, len(plain))
	for i, s := range plain {
		plainCPU[i], plainSimS[i] = s.cpuRunS, s.simS
	}
	tracedCPU := make([]float64, len(runs))
	tracedRunS := make([]float64, len(runs))
	perRun := make([]map[string]float64, len(runs))
	for i, r := range runs {
		tracedCPU[i], tracedRunS[i] = r.cpuS, r.runS
		perRun[i] = r.layerMetrics(b.w.opts.Shards, median(plainSimS))
	}
	// On CPU time, so the figure is the work tracing adds: the traced run
	// drives vaults serially, and wall time would count the lost
	// parallelism too.
	overhead := 100 * (median(tracedCPU)/median(plainCPU) - 1)

	m := map[string]metric{}
	for _, lu := range layerUnits {
		vals := make([]float64, len(perRun))
		for i, pr := range perRun {
			vals[i] = pr[lu.name]
		}
		m[lu.name] = metric{median(vals), lu.unit}
	}
	m["bench.trace_overhead_pct"] = metric{overhead, "%"}

	fmt.Fprintf(b.out, "workload %s seed %d: %d traced and %d untraced runs in %.1f s, fingerprint %s\n",
		b.w.name, b.seed, len(runs), len(plain), time.Since(start).Seconds(), b.want)
	printMetrics(b.out, m)

	mid := runs[medianIndex(tracedRunS)]
	var table strings.Builder
	writeShares(&table, b.w.name, b.seed, mid)
	fmt.Fprint(b.out, table.String())

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", b.w.name, b.seed))
	if err := atomicio.WriteFile(base+".shares.txt", func(w io.Writer) error {
		_, err := io.WriteString(w, table.String())
		return err
	}); err != nil {
		return result{}, err
	}
	threads := []string{"request loop"}
	for v := range runs[0].busy {
		threads = append(threads, fmt.Sprintf("vault %02d", v))
	}
	if err := log.writeFile(base+".trace.json", "perfbench "+b.w.name, threads); err != nil {
		return result{}, err
	}
	fmt.Fprintf(b.out, "spans: %s.trace.json, shares: %s.shares.txt\n", base, base)
	return result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}, nil
}

func writeShares(w io.Writer, name string, seed uint64, r *tracedRun) {
	dropped := r.next.dropped + r.cacheAccess.dropped + r.mapper.dropped + r.drain.dropped +
		r.submit.dropped + r.enqueue.dropped + r.timer.dropped
	for p := phase(0); p < numPhases; p++ {
		dropped += r.advance[p].dropped + r.restore[p].dropped
	}
	fmt.Fprintf(w, "self time per layer, %s seed %d, traced run of %.4f s (%d sampled intervals dropped as interruptions):\n",
		name, seed, r.runS, dropped)
	for _, row := range r.shares() {
		if row.selfS == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-28s %10.6f s %6.1f%%\n", row.layer, row.selfS, 100*row.selfS/r.runS)
	}
}
