package experiment

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"smartrefresh/internal/config"
	"smartrefresh/internal/memctrl"
	"smartrefresh/internal/power"
	"smartrefresh/internal/sim"
	"smartrefresh/internal/workload"
)

func TestRefreshesPerSecondGuardsWindow(t *testing.T) {
	cases := []struct {
		name   string
		window sim.Duration
		ops    uint64
		want   float64
	}{
		{"zero window", 0, 1000, 0},
		{"negative window", -sim.Millisecond, 1000, 0},
		{"zero ops", sim.Second, 0, 0},
		{"one second", sim.Second, 2048000, 2048000},
		{"quarter second", 250 * sim.Millisecond, 512000, 2048000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := RunResult{Window: tc.window}
			r.Results.Module.RefreshOps = tc.ops
			got := r.RefreshesPerSecond()
			if math.IsNaN(got) || math.IsInf(got, 0) {
				t.Fatalf("RefreshesPerSecond = %v", got)
			}
			if math.Abs(got-tc.want) > 1e-9 {
				t.Errorf("RefreshesPerSecond = %v, want %v", got, tc.want)
			}
		})
	}
}

// finitePair asserts no field of the pair is NaN or infinite.
func finitePair(t *testing.T, pm PairMetrics) {
	t.Helper()
	for name, v := range map[string]float64{
		"BaselineRefreshesPerSec": pm.BaselineRefreshesPerSec,
		"SmartRefreshesPerSec":    pm.SmartRefreshesPerSec,
		"RefreshReductionPct":     pm.RefreshReductionPct,
		"BaselineRefreshEnergyMJ": pm.BaselineRefreshEnergyMJ,
		"SmartRefreshEnergyMJ":    pm.SmartRefreshEnergyMJ,
		"RefreshEnergySavingPct":  pm.RefreshEnergySavingPct,
		"BaselineTotalEnergyMJ":   pm.BaselineTotalEnergyMJ,
		"SmartTotalEnergyMJ":      pm.SmartTotalEnergyMJ,
		"TotalEnergySavingPct":    pm.TotalEnergySavingPct,
		"PerfImprovementPct":      pm.PerfImprovementPct,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v", name, v)
		}
	}
}

func TestPairFromGuardsZeroDenominators(t *testing.T) {
	run := func(window sim.Duration, ops uint64, refreshE, totalE power.Energy, stall sim.Duration) RunResult {
		var res memctrl.Results
		res.Module.RefreshOps = ops
		res.Module.DemandStall = stall
		res.Energy.RefreshArray = refreshE
		res.Energy.Background = totalE - refreshE
		res.DemandStall = stall
		return RunResult{Benchmark: "t", Config: "c", Window: window, Results: res}
	}

	cases := []struct {
		name        string
		base, smart RunResult
		wantRefrPct float64
	}{
		{"all zero", RunResult{}, RunResult{}, 0},
		{"zero window only", run(0, 100, 10, 20, 0), run(0, 50, 5, 10, 0), 0},
		{"zero baseline ops", run(sim.Second, 0, 0, 0, 0), run(sim.Second, 50, 5, 10, 0), 0},
		{"zero baseline energy", run(sim.Second, 100, 0, 0, 0), run(sim.Second, 50, 0, 0, 0), 50},
		{"normal halving", run(sim.Second, 100, 10, 20, 0), run(sim.Second, 50, 5, 10, 0), 50},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pm := PairFrom(tc.base, tc.smart)
			finitePair(t, pm)
			if math.Abs(pm.RefreshReductionPct-tc.wantRefrPct) > 1e-9 {
				t.Errorf("RefreshReductionPct = %v, want %v", pm.RefreshReductionPct, tc.wantRefrPct)
			}
		})
	}
}

func TestRunPairOnRealStreamIsFinite(t *testing.T) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	pm := RunPair(Conv2GB.DRAM(), prof, engineOpts())
	finitePair(t, pm)
	if pm.RefreshReductionPct <= 0 {
		t.Errorf("expected a refresh reduction, got %v%%", pm.RefreshReductionPct)
	}
}

func TestRunOptionsEnd(t *testing.T) {
	ms := sim.Millisecond
	cases := []struct {
		name            string
		warmup, measure sim.Duration
		want            sim.Time
		ok              bool
	}{
		{"default-sized", 64 * ms, 256 * ms, 320 * ms, true},
		{"empty", 0, 0, 0, true},
		{"largest end", math.MaxInt64 - ms, ms, math.MaxInt64, true},
		{"one past the largest end", math.MaxInt64 - ms + 1, ms, 0, false},
		{"both parts in range, sum past it", 9223372036 * ms, ms, 0, false},
		{"negative warmup", -ms, ms, 0, false},
		{"negative measure", ms, -ms, 0, false},
	}
	for _, tc := range cases {
		end, err := RunOptions{Warmup: tc.warmup, Measure: tc.measure}.End()
		if tc.ok && (err != nil || end != tc.want) {
			t.Errorf("%s: End() = %v, %v; want %v, nil", tc.name, end, err, tc.want)
		}
		if !tc.ok && !errors.Is(err, ErrRunWindow) {
			t.Errorf("%s: End() = %v, %v; want ErrRunWindow", tc.name, end, err)
		}
	}
}

// An invalid run window is an error from every entry point, returned
// before any controller is built. The deadline keeps a regression
// failing instead of hanging: a wrapped window end once sent the warmup
// snapshot draining refresh ticks towards the end of time.
func TestRunRejectsInvalidWindow(t *testing.T) {
	ms := sim.Millisecond
	windows := []RunOptions{
		{Warmup: 9223372036 * ms, Measure: ms},
		{Warmup: -ms, Measure: ms},
		{Warmup: ms, Measure: -ms},
	}
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []config.DRAM{config.Table1_2GB(), config.HMC8Vault()} {
		for _, opts := range windows {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_, err := RunContext(ctx, cfg, prof, PolicySmart, opts)
			cancel()
			if !errors.Is(err, ErrRunWindow) {
				t.Errorf("%s, warmup %v, measure %v: RunContext error %v, want ErrRunWindow",
					cfg.Name, opts.Warmup, opts.Measure, err)
			}
			res := NewEngine(1).RunJobs([]Job{{Cfg: cfg, Prof: prof, Policy: PolicySmart, Opts: opts}})[0]
			if !errors.Is(res.Err, ErrRunWindow) {
				t.Errorf("%s, warmup %v, measure %v: RunJobs error %v, want ErrRunWindow",
					cfg.Name, opts.Warmup, opts.Measure, res.Err)
			}
		}
	}
}
