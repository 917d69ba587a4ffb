package dram

import (
	"testing"

	"smartrefresh/internal/sim"
)

func TestEnterPowerDownClampsPastBusyBanks(t *testing.T) {
	m := testModule()
	a := Address{RowID: RowID{0, 0, 0, 5}, Column: 0}
	access(m, 0, a, false)
	ready := m.BankReadyAt(BankID{0, 0, 0})
	if ready <= 0 {
		t.Fatal("access left no bank busy span")
	}
	// The PDE queues behind the in-flight access: requesting entry at
	// t=0 must not charge ACT-PDN residency over the busy span.
	entered := m.EnterPowerDown(0, 0, 0, PDActive)
	if entered < ready {
		t.Errorf("entered ACT-PDN at %v, before the bank freed at %v", entered, ready)
	}
	if got := m.PowerDownState(0, 0); got != PDActive {
		t.Errorf("state = %v, want act-pdn", got)
	}
	m.Finalize(entered + 10*sim.Microsecond)
	st := m.Stats()
	if st.ActPdnTime != 10*sim.Microsecond {
		t.Errorf("ActPdnTime = %v, want 10us (clamped entry)", st.ActPdnTime)
	}
	if st.PowerDownEntries != 1 {
		t.Errorf("PowerDownEntries = %d, want 1", st.PowerDownEntries)
	}
}

func TestEnterPowerDownDeepenFolds(t *testing.T) {
	m := testModule()
	// Fast PRE-PDN for 5 us, then deepen to slow for 10 us: the fold at
	// the deepen point must split the residency between the two kinds.
	m.EnterPowerDown(0, 0, 1, PDPrechargeFast)
	m.EnterPowerDown(5*sim.Microsecond, 0, 1, PDPrechargeSlow)
	if got := m.PowerDownState(0, 1); got != PDPrechargeSlow {
		t.Fatalf("state = %v, want pre-pdn-slow", got)
	}
	m.Finalize(15 * sim.Microsecond)
	st := m.Stats()
	if st.PrePdnFastTime != 5*sim.Microsecond {
		t.Errorf("PrePdnFastTime = %v, want 5us", st.PrePdnFastTime)
	}
	if st.PrePdnSlowTime != 10*sim.Microsecond {
		t.Errorf("PrePdnSlowTime = %v, want 10us", st.PrePdnSlowTime)
	}
	if st.PowerDownEntries != 2 {
		t.Errorf("PowerDownEntries = %d, want 2 (entry + deepen)", st.PowerDownEntries)
	}
}

func TestEnterPowerDownPanics(t *testing.T) {
	cases := []struct {
		name string
		run  func(m *Module)
	}{
		{"kind none", func(m *Module) {
			m.EnterPowerDown(0, 0, 0, PDNone)
		}},
		{"in self-refresh", func(m *Module) {
			m.EnterSelfRefresh(0, 0, 0)
			m.EnterPowerDown(sim.Time(sim.Microsecond), 0, 0, PDPrechargeFast)
		}},
		{"precharge with open banks", func(m *Module) {
			res := access(m, 0, Address{RowID: RowID{0, 0, 0, 5}, Column: 0}, false)
			m.EnterPowerDown(res.Done, 0, 0, PDPrechargeFast)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted", tc.name)
				}
			}()
			tc.run(testModule())
		})
	}
}

func TestExitPowerDownLatency(t *testing.T) {
	tim := DDR2_667(64 * sim.Millisecond)
	cases := []struct {
		kind PowerDownKind
		exit sim.Duration
	}{
		{PDActive, tim.PowerDownExitFast()},
		{PDPrechargeFast, tim.PowerDownExitFast()},
		{PDPrechargeSlow, tim.PowerDownExitSlow()},
	}
	for _, tc := range cases {
		t.Run(tc.kind.String(), func(t *testing.T) {
			m := testModule()
			m.EnterPowerDown(0, 0, 0, tc.kind)
			wake := sim.Time(10 * sim.Microsecond)
			ready := m.ExitPowerDown(wake, 0, 0)
			if ready < wake+sim.Time(tc.exit) {
				t.Errorf("ready at %v, want >= %v (exit %v)", ready, wake+sim.Time(tc.exit), tc.exit)
			}
			if got := m.PowerDownState(0, 0); got != PDNone {
				t.Errorf("state after exit = %v, want none", got)
			}
			// Every bank of the rank honours the exit latency.
			for b := 0; b < m.Geometry().Banks; b++ {
				if at := m.BankReadyAt(BankID{0, 0, b}); at < ready {
					t.Errorf("bank %d ready at %v, before rank wake %v", b, at, ready)
				}
			}
		})
	}
}

func TestExitPowerDownNotEnteredPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("exit without entry accepted")
		}
	}()
	testModule().ExitPowerDown(0, 0, 0)
}

func TestSlowSelfRefreshSplitsResidency(t *testing.T) {
	m := testModule()
	entered := m.EnterSelfRefresh(0, 0, 0)
	m.SlowSelfRefresh(entered+4*sim.Microsecond, 0, 0)
	m.Finalize(entered + 10*sim.Microsecond)
	st := m.Stats()
	if got := st.SelfRefreshTime; got < 10*sim.Microsecond {
		t.Errorf("SelfRefreshTime = %v, want >= 10us", got)
	}
	if st.SelfRefreshSlowTime != 6*sim.Microsecond {
		t.Errorf("SelfRefreshSlowTime = %v, want 6us", st.SelfRefreshSlowTime)
	}
}

// TestFinalizeTwiceExtendsLadderResidency: a second Finalize extends
// every open low-power span to the new end instead of re-counting the
// part the first call already folded.
func TestFinalizeTwiceExtendsLadderResidency(t *testing.T) {
	m := testModule()
	m.EnterPowerDown(0, 0, 0, PDPrechargeFast)
	m.EnterPowerDown(2*sim.Microsecond, 0, 0, PDPrechargeSlow)
	m.EnterSelfRefresh(0, 0, 1)
	m.SlowSelfRefresh(4*sim.Microsecond, 0, 1)
	m.Finalize(10 * sim.Microsecond)
	m.Finalize(20 * sim.Microsecond)
	st := m.Stats()
	for _, c := range []struct {
		name      string
		got, want sim.Duration
	}{
		{"PrePdnFastTime", st.PrePdnFastTime, 2 * sim.Microsecond},
		{"PrePdnSlowTime", st.PrePdnSlowTime, 18 * sim.Microsecond},
		{"SelfRefreshTime", st.SelfRefreshTime, 20 * sim.Microsecond},
		{"SelfRefreshSlowTime", st.SelfRefreshSlowTime, 16 * sim.Microsecond},
		{"IdleTime", st.IdleTime, 40 * sim.Microsecond},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestSlowSelfRefreshPanics(t *testing.T) {
	t.Run("not in self-refresh", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("slow self-refresh outside self-refresh accepted")
			}
		}()
		testModule().SlowSelfRefresh(0, 0, 0)
	})
	t.Run("already slow", func(t *testing.T) {
		m := testModule()
		entered := m.EnterSelfRefresh(0, 0, 0)
		m.SlowSelfRefresh(entered, 0, 0)
		defer func() {
			if recover() == nil {
				t.Error("double slow self-refresh accepted")
			}
		}()
		m.SlowSelfRefresh(entered+sim.Time(sim.Microsecond), 0, 0)
	})
}

func TestPowerDownExitLatencyFallbacks(t *testing.T) {
	tim := DDR2_667(64 * sim.Millisecond)
	if tim.TXP <= 0 || tim.TXPDLL <= 0 || tim.TXSRD <= 0 {
		t.Fatal("preset should set explicit exit latencies")
	}
	if got := tim.PowerDownExitFast(); got != tim.TXP {
		t.Errorf("PowerDownExitFast = %v, want TXP %v", got, tim.TXP)
	}
	if got := tim.PowerDownExitSlow(); got != tim.TXPDLL {
		t.Errorf("PowerDownExitSlow = %v, want TXPDLL %v", got, tim.TXPDLL)
	}
	if got := tim.SelfRefreshSlowExit(); got != tim.TXSRD {
		t.Errorf("SelfRefreshSlowExit = %v, want TXSRD %v", got, tim.TXSRD)
	}

	// Legacy current tables leave the new latencies zero; the accessors
	// fall back to clock-derived DDR2 figures.
	tim.TXP, tim.TXPDLL, tim.TXSRD = 0, 0, 0
	if got := tim.PowerDownExitFast(); got != 2*tim.TCK {
		t.Errorf("fallback PowerDownExitFast = %v, want 2 TCK", got)
	}
	if got := tim.PowerDownExitSlow(); got != 8*tim.TCK {
		t.Errorf("fallback PowerDownExitSlow = %v, want 8 TCK", got)
	}
	if got := tim.SelfRefreshSlowExit(); got != 200*tim.TCK {
		t.Errorf("fallback SelfRefreshSlowExit = %v, want 200 TCK", got)
	}
	// And never below the plain self-refresh exit.
	tim.TXSRD = tim.TXSNR / 2
	if got := tim.SelfRefreshSlowExit(); got != tim.TXSNR {
		t.Errorf("SelfRefreshSlowExit = %v, want clamped to TXSNR %v", got, tim.TXSNR)
	}
}

func TestTimingValidateRejectsPowerDownLatencies(t *testing.T) {
	tt := DDR2_667(64 * sim.Millisecond)
	tt.TXP = -sim.Nanosecond
	if err := tt.Validate(); err == nil {
		t.Error("negative TXP accepted")
	}
	tt = DDR2_667(64 * sim.Millisecond)
	tt.TXPDLL = tt.TXP / 2
	if err := tt.Validate(); err == nil {
		t.Error("TXPDLL < TXP accepted")
	}
	tt = DDR2_667(64 * sim.Millisecond)
	tt.TXSRD = tt.TXSNR / 2
	if err := tt.Validate(); err == nil {
		t.Error("TXSRD < TXSNR accepted")
	}
}
