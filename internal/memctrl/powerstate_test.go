package memctrl

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"smartrefresh/internal/core"
	"smartrefresh/internal/sim"
)

// psLadderOptions arms every rung of the ladder with round thresholds
// that interleave with the default 2 us page-close timeout.
func psLadderOptions() Options {
	return Options{
		SelfRefreshAfter: 100 * sim.Microsecond,
		PowerStates: PowerStateConfig{
			ActPdnAfter:     1 * sim.Microsecond,
			PrePdnFastAfter: 5 * sim.Microsecond,
			PrePdnSlowAfter: 50 * sim.Microsecond,
			SRSlowAfter:     500 * sim.Microsecond,
		},
	}
}

func TestPowerStateLadderDescent(t *testing.T) {
	cfg := tinyConfig(64 * sim.Millisecond)
	ctl := MustNew(cfg, core.NewCBR(cfg.Geometry, cfg.RefreshInterval()), psLadderOptions())
	// One access opens a page on rank 0; then the rank idles down the
	// whole ladder: ACT-PDN first (pages still open), woken by the
	// idle-close, then the precharged rungs in depth order.
	ctl.Submit(Request{Time: 0, Addr: 0})
	steps := []struct {
		at   sim.Time
		want PowerState
	}{
		{1500 * sim.Nanosecond, PSActPdn},          // 1 us after the access
		{3 * sim.Microsecond, PSAwake},             // idle-close at 2 us woke it
		{6 * sim.Microsecond, PSPrePdnFast},        // 5 us
		{60 * sim.Microsecond, PSPrePdnSlow},       // 50 us
		{120 * sim.Microsecond, PSSelfRefresh},     // 100 us
		{700 * sim.Microsecond, PSSelfRefreshSlow}, // SR entry + 500 us
	}
	for _, s := range steps {
		ctl.AdvanceTo(s.at)
		if got := ctl.PowerStateOf(0, 0); got != s.want {
			t.Errorf("at %v: rank 0 state = %v, want %v", s.at, got, s.want)
		}
	}
	end := 800 * sim.Microsecond
	ctl.Finish(sim.Time(end))
	ms := ctl.Results(sim.Time(end)).Module
	if !ms.PowerStatesTracked {
		t.Fatal("residency tracking off with an armed ladder")
	}
	if ms.ActPdnTime <= 0 || ms.PrePdnFastTime <= 0 || ms.PrePdnSlowTime <= 0 ||
		ms.SelfRefreshTime <= 0 || ms.SelfRefreshSlowTime <= 0 {
		t.Errorf("missing residency in some rung: act-pdn %v fast %v slow %v sr %v sr-slow %v",
			ms.ActPdnTime, ms.PrePdnFastTime, ms.PrePdnSlowTime, ms.SelfRefreshTime, ms.SelfRefreshSlowTime)
	}
}

func TestPowerStateWakeLatency(t *testing.T) {
	cfg := tinyConfig(64 * sim.Millisecond)
	tests := []struct {
		name string
		at   sim.Time // advance target that lands the rank in the state
		st   PowerState
		exit sim.Duration
	}{
		{"act-pdn", 1500 * sim.Nanosecond, PSActPdn, cfg.Timing.PowerDownExitFast()},
		{"pre-pdn-fast", 6 * sim.Microsecond, PSPrePdnFast, cfg.Timing.PowerDownExitFast()},
		{"pre-pdn-slow", 60 * sim.Microsecond, PSPrePdnSlow, cfg.Timing.PowerDownExitSlow()},
		{"sr", 120 * sim.Microsecond, PSSelfRefresh, cfg.Timing.TXSNR},
		{"sr-slow", 700 * sim.Microsecond, PSSelfRefreshSlow, cfg.Timing.SelfRefreshSlowExit()},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			ctl := MustNew(cfg, core.NewCBR(cfg.Geometry, cfg.RefreshInterval()), psLadderOptions())
			if tc.st == PSActPdn {
				ctl.Submit(Request{Time: 0, Addr: 0}) // open a page first
			}
			ctl.AdvanceTo(tc.at)
			if got := ctl.PowerStateOf(0, 0); got != tc.st {
				t.Fatalf("setup: state = %v, want %v", got, tc.st)
			}
			res := ctl.Submit(Request{Time: tc.at, Addr: 0})
			if res.Issue < tc.at+sim.Time(tc.exit) {
				t.Errorf("wake from %v issued at %v, want >= %v (exit %v)",
					tc.st, res.Issue, tc.at+sim.Time(tc.exit), tc.exit)
			}
			if got := ctl.PowerStateOf(0, 0); got != PSAwake {
				t.Errorf("state after demand wake = %v, want awake", got)
			}
		})
	}
}

func TestPowerStateConfigValidation(t *testing.T) {
	cfg := tinyConfig(64 * sim.Millisecond)
	const us = sim.Microsecond
	cases := []struct {
		name string
		opts Options
	}{
		{"act-pdn at page-close timeout", Options{
			PowerStates: PowerStateConfig{ActPdnAfter: 2 * us}}},
		{"pre-pdn-fast below page-close timeout", Options{
			PowerStates: PowerStateConfig{PrePdnFastAfter: 1 * us}}},
		{"pre-pdn-fast with idle-close disabled", Options{
			IdleClose: -1, PowerStates: PowerStateConfig{PrePdnFastAfter: 5 * us}}},
		{"pre-pdn-slow without fast", Options{
			PowerStates: PowerStateConfig{PrePdnSlowAfter: 50 * us}}},
		{"pre-pdn-slow at fast threshold", Options{
			PowerStates: PowerStateConfig{PrePdnFastAfter: 5 * us, PrePdnSlowAfter: 5 * us}}},
		{"self-refresh below deepest pre-pdn", Options{
			SelfRefreshAfter: 10 * us,
			PowerStates:      PowerStateConfig{PrePdnFastAfter: 5 * us, PrePdnSlowAfter: 20 * us}}},
		{"sr-slow without self-refresh", Options{
			PowerStates: PowerStateConfig{SRSlowAfter: 50 * us}}},
		{"negative threshold", Options{
			PowerStates: PowerStateConfig{PrePdnFastAfter: -1}}},
	}
	for _, tc := range cases {
		if _, err := New(cfg, core.NewCBR(cfg.Geometry, cfg.RefreshInterval()), tc.opts); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := New(cfg, core.NewCBR(cfg.Geometry, cfg.RefreshInterval()), psLadderOptions()); err != nil {
		t.Errorf("full valid ladder rejected: %v", err)
	}
}

func TestPowerStateTwoStateStaysUntracked(t *testing.T) {
	// An SR-only configuration must stay on the historical two-state
	// accounting: no residency tracking, no power-down stats — this is
	// the bit-identical degenerate case every golden figure rests on.
	cfg := tinyConfig(64 * sim.Millisecond)
	ctl := MustNew(cfg, core.NewCBR(cfg.Geometry, cfg.RefreshInterval()), srOptions())
	end := sim.Time(cfg.RefreshInterval())
	ctl.Finish(end)
	ms := ctl.Results(end).Module
	if ms.PowerStatesTracked {
		t.Error("SR-only configuration switched to residency tracking")
	}
	if ms.ActPdnTime != 0 || ms.PrePdnFastTime != 0 || ms.PrePdnSlowTime != 0 ||
		ms.SelfRefreshSlowTime != 0 || ms.PowerDownEntries != 0 {
		t.Errorf("power-down stats accumulated without arming: %+v", ms)
	}
}

func TestNextPowerEventMatchesReference(t *testing.T) {
	// Random per-rank pending transitions, with deadlines drawn from a
	// tiny range so equal deadlines across ranks are common. The scan
	// must pick exactly what a brute-force sort picks: the smallest
	// deadline, ties to the lowest rank index (the order that keeps
	// two-state configurations bit-identical with the historical
	// controller).
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		c := &Controller{ps: powerStates{armed: true, ranks: make([]psState, 1+rng.Intn(8))}}
		type cand struct {
			at sim.Time
			ri int
		}
		var live []cand
		for ri := range c.ps.ranks {
			st := &c.ps.ranks[ri]
			st.hasNext = rng.Intn(4) != 0
			st.nextAt = sim.Time(rng.Intn(4))
			st.nextTarget = PowerState(1 + rng.Intn(int(PSSelfRefreshSlow)))
			if st.hasNext {
				live = append(live, cand{st.nextAt, ri})
			}
		}
		sort.Slice(live, func(i, j int) bool {
			if live[i].at != live[j].at {
				return live[i].at < live[j].at
			}
			return live[i].ri < live[j].ri
		})
		at, ri, ok := c.nextPowerEvent()
		if len(live) == 0 {
			if ok {
				t.Fatalf("trial %d: no rank pending, got (%v, rank %d)", trial, at, ri)
			}
			continue
		}
		if !ok || at != live[0].at || ri != live[0].ri {
			t.Fatalf("trial %d: got (%v, rank %d, ok=%v), want (%v, rank %d)",
				trial, at, ri, ok, live[0].at, live[0].ri)
		}
	}
}

func TestPowerStateSameDeadlineDeterminism(t *testing.T) {
	// Both ranks idle from t=0, so every rung's deadline coincides
	// exactly across ranks. The run must be deterministic and both
	// ranks must make it down the ladder.
	cfg := tinyConfig(64 * sim.Millisecond)
	run := func() Results {
		ctl := MustNew(cfg, core.NewCBR(cfg.Geometry, cfg.RefreshInterval()), psLadderOptions())
		end := 80 * sim.Microsecond
		ctl.Finish(sim.Time(end))
		return ctl.Results(sim.Time(end))
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same-deadline rerun differs:\n first: %+v\nsecond: %+v", a, b)
	}
	// fast at 5 us and the slow deepen at 50 us, per rank.
	if got := a.Module.PowerDownEntries; got != 4 {
		t.Errorf("PowerDownEntries = %d, want 4 (fast + slow deepen, two ranks)", got)
	}
	if a.Module.PrePdnFastTime <= 0 || a.Module.PrePdnSlowTime <= 0 {
		t.Errorf("missing PRE-PDN residency: fast %v slow %v",
			a.Module.PrePdnFastTime, a.Module.PrePdnSlowTime)
	}
}

func TestPowerStateResidencyAtDrain(t *testing.T) {
	// A rank that enters a low-power state in the final interval and
	// never wakes must report residency clamped to the drain horizon —
	// for every rung of the ladder, and idempotently across repeated
	// Results calls.
	cfg := tinyConfig(64 * sim.Millisecond)
	ranks := sim.Duration(cfg.Geometry.Channels * cfg.Geometry.Ranks)
	cases := []struct {
		name   string
		end    sim.Duration
		access bool // open a page first (for the ACT-PDN case)
		check  func(t *testing.T, got Results)
	}{
		{"act-pdn", 1500 * sim.Nanosecond, true, func(t *testing.T, got Results) {
			if ms := got.Module; ms.ActPdnTime <= 0 || ms.ActPdnTime > ms.ActiveTime {
				t.Errorf("ACT-PDN at drain: %v of active %v", ms.ActPdnTime, ms.ActiveTime)
			}
		}},
		{"pre-pdn-fast", 20 * sim.Microsecond, false, func(t *testing.T, got Results) {
			if ms := got.Module; ms.PrePdnFastTime <= 0 || ms.PrePdnFastTime > ms.IdleTime {
				t.Errorf("PRE-PDN-fast at drain: %v of idle %v", ms.PrePdnFastTime, ms.IdleTime)
			}
		}},
		{"pre-pdn-slow", 80 * sim.Microsecond, false, func(t *testing.T, got Results) {
			if ms := got.Module; ms.PrePdnSlowTime <= 0 || ms.PrePdnSlowTime > ms.IdleTime {
				t.Errorf("PRE-PDN-slow at drain: %v of idle %v", ms.PrePdnSlowTime, ms.IdleTime)
			}
		}},
		{"sr", 200 * sim.Microsecond, false, func(t *testing.T, got Results) {
			if ms := got.Module; ms.SelfRefreshTime <= 0 || ms.SelfRefreshTime > ms.IdleTime {
				t.Errorf("SR at drain: %v of idle %v", ms.SelfRefreshTime, ms.IdleTime)
			}
		}},
		{"sr-slow", 700 * sim.Microsecond, false, func(t *testing.T, got Results) {
			if ms := got.Module; ms.SelfRefreshSlowTime <= 0 || ms.SelfRefreshSlowTime > ms.SelfRefreshTime {
				t.Errorf("SR-slow at drain: %v of sr %v", ms.SelfRefreshSlowTime, ms.SelfRefreshTime)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctl := MustNew(cfg, core.NewCBR(cfg.Geometry, cfg.RefreshInterval()), psLadderOptions())
			if tc.access {
				ctl.Submit(Request{Time: 0, Addr: 0})
			}
			end := sim.Time(tc.end)
			ctl.Finish(end)
			got := ctl.Results(end)
			tc.check(t, got)
			ms := got.Module
			// Clamped to the drain horizon: no low-power residency may
			// extend past end (per rank).
			for _, r := range []struct {
				label string
				v     sim.Duration
			}{
				{"act-pdn", ms.ActPdnTime}, {"pre-pdn-fast", ms.PrePdnFastTime},
				{"pre-pdn-slow", ms.PrePdnSlowTime}, {"sr", ms.SelfRefreshTime},
			} {
				if r.v > ranks*tc.end {
					t.Errorf("%s residency %v exceeds drain horizon %v x %d ranks", r.label, r.v, tc.end, ranks)
				}
			}
			// A second Results at the same horizon must not re-count the
			// still-open span.
			if again := ctl.Results(end); !reflect.DeepEqual(got, again) {
				t.Errorf("repeated Results differ:\n first: %+v\nsecond: %+v", got, again)
			}
		})
	}
}

func TestPowerStateRetentionClean(t *testing.T) {
	// Refresh ticks must keep waking power-down ranks (they drop
	// commands only in self-refresh), so a long idle run with the full
	// ladder armed holds the retention deadline.
	cfg := tinyConfig(4 * sim.Millisecond)
	opts := psLadderOptions()
	opts.CheckRetention = true
	opts.RetentionSlack = 2*cfg.RefreshInterval() + 4*sim.Microsecond
	ctl := MustNew(cfg, core.NewCBR(cfg.Geometry, cfg.RefreshInterval()), opts)
	end := sim.Time(3 * cfg.RefreshInterval())
	ctl.Finish(end)
	if err := ctl.RetentionErr(); err != nil {
		t.Fatalf("retention with full ladder: %v", err)
	}
	if ms := ctl.Results(end).Module; ms.SelfRefreshTime <= 0 {
		t.Error("rank never reached self-refresh on a long idle run")
	}
}
