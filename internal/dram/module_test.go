package dram

import (
	"testing"
	"testing/quick"

	"smartrefresh/internal/sim"
)

func testModule() *Module {
	return NewModule(table1Geom2GB(), DDR2_667(64*sim.Millisecond))
}

// The helpers below run one module operation into a fresh result and
// return it, for tests that read results as values.

func access(m *Module, t sim.Time, addr Address, write bool) AccessResult {
	var res AccessResult
	m.Access(t, addr, write, &res)
	return res
}

func refreshRow(m *Module, t sim.Time, row RowID) RefreshResult {
	var res RefreshResult
	m.RefreshRow(t, row, &res)
	return res
}

func refreshNextCBR(m *Module, t sim.Time, bank BankID) RefreshResult {
	var res RefreshResult
	m.RefreshNextCBR(t, bank, &res)
	return res
}

func refreshBank(m *Module, t sim.Time, bank BankID) RefreshResult {
	var res RefreshResult
	m.RefreshBank(t, bank, &res)
	return res
}

func refreshBankOverlapped(m *Module, t sim.Time, bank BankID) RefreshResult {
	var res RefreshResult
	m.RefreshBankOverlapped(t, bank, &res)
	return res
}

func TestTimingPresetValid(t *testing.T) {
	if err := DDR2_667(64 * sim.Millisecond).Validate(); err != nil {
		t.Fatalf("DDR2_667 invalid: %v", err)
	}
	if err := DDR2_667(32 * sim.Millisecond).Validate(); err != nil {
		t.Fatalf("DDR2_667 32ms invalid: %v", err)
	}
}

func TestTimingValidateRejects(t *testing.T) {
	tt := DDR2_667(64 * sim.Millisecond)
	tt.TRC = tt.TRAS // < TRAS+TRP
	if err := tt.Validate(); err == nil {
		t.Error("TRC < TRAS+TRP accepted")
	}
	tt = DDR2_667(64 * sim.Millisecond)
	tt.TCL = 0
	if err := tt.Validate(); err == nil {
		t.Error("zero TCL accepted")
	}
	tt = DDR2_667(64 * sim.Millisecond)
	tt.RefreshInterval = tt.TRC
	if err := tt.Validate(); err == nil {
		t.Error("implausibly short refresh interval accepted")
	}
}

func TestBurstDuration(t *testing.T) {
	tt := DDR2_667(64 * sim.Millisecond)
	// 4 beats at 2 beats/clock = 2 clocks = 6 ns.
	if got := tt.BurstDuration(4); got != 6*sim.Nanosecond {
		t.Fatalf("BurstDuration(4) = %v", got)
	}
}

func TestAccessRowMissThenHit(t *testing.T) {
	m := testModule()
	addr := Address{RowID: RowID{0, 0, 0, 5}, Column: 10}

	r1 := access(m, 0, addr, false)
	if r1.RowHit {
		t.Error("first access reported row hit")
	}
	if !r1.OpenedRowSet || r1.OpenedRow != addr.RowID {
		t.Error("first access did not report opened row")
	}
	// Activate + tRCD + tCL + burst.
	tt := m.Timing()
	wantDone := sim.NewClock(tt.TCK).Next(tt.TRCD) + tt.TCL + tt.BurstDuration(4)
	if r1.Done < wantDone {
		t.Errorf("miss Done = %v, want >= %v", r1.Done, wantDone)
	}

	r2 := access(m, r1.Done, addr, false)
	if !r2.RowHit {
		t.Error("second access to same row not a hit")
	}
	if r2.OpenedRowSet || r2.ClosedRowSet {
		t.Error("row hit should not open or close rows")
	}
	if r2.Done-r2.Issue > tt.TCL+tt.BurstDuration(4)+2*tt.TCK {
		t.Errorf("hit latency %v too large", r2.Done-r2.Issue)
	}
	st := m.Stats()
	if st.RowHits != 1 || st.RowMisses != 1 || st.Accesses != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestAccessConflictClosesRow(t *testing.T) {
	m := testModule()
	a1 := Address{RowID: RowID{0, 0, 0, 5}, Column: 0}
	a2 := Address{RowID: RowID{0, 0, 0, 9}, Column: 0}
	r1 := access(m, 0, a1, false)
	r2 := access(m, r1.Done, a2, false)
	if !r2.Conflict {
		t.Fatal("conflict not reported")
	}
	if !r2.ClosedRowSet || r2.ClosedRow != a1.RowID {
		t.Errorf("closed row = %+v (set=%v), want %+v", r2.ClosedRow, r2.ClosedRowSet, a1.RowID)
	}
	if !r2.OpenedRowSet || r2.OpenedRow != a2.RowID {
		t.Error("opened row wrong")
	}
	if m.Stats().RowConflicts != 1 {
		t.Errorf("RowConflicts = %d", m.Stats().RowConflicts)
	}
	// Conflict latency must exceed miss latency (extra precharge).
	if r2.Done-r2.Issue <= r1.Done-r1.Issue {
		t.Errorf("conflict latency %v not greater than miss latency %v",
			r2.Done-r2.Issue, r1.Done-r1.Issue)
	}
}

func TestAccessDifferentBanksIndependent(t *testing.T) {
	m := testModule()
	a1 := Address{RowID: RowID{0, 0, 0, 5}, Column: 0}
	a2 := Address{RowID: RowID{0, 0, 1, 9}, Column: 0}
	access(m, 0, a1, false)
	r2 := access(m, 0, a2, false)
	if r2.Conflict || r2.RowHit {
		t.Error("access to different bank should be a plain miss")
	}
	if m.OpenRow(BankID{0, 0, 0}) != 5 || m.OpenRow(BankID{0, 0, 1}) != 9 {
		t.Error("open rows per bank wrong")
	}
}

func TestWriteRecoveryDelaysPrecharge(t *testing.T) {
	m := testModule()
	a1 := Address{RowID: RowID{0, 0, 0, 5}, Column: 0}
	a2 := Address{RowID: RowID{0, 0, 0, 9}, Column: 0}
	w := access(m, 0, a1, true)
	conflictAfterWrite := access(m, w.Done, a2, false)

	m2 := testModule()
	r := access(m2, 0, a1, false)
	conflictAfterRead := access(m2, r.Done, a2, false)

	if conflictAfterWrite.Done-conflictAfterWrite.Issue <= conflictAfterRead.Done-conflictAfterRead.Issue {
		t.Errorf("write recovery did not lengthen conflict: write %v, read %v",
			conflictAfterWrite.Done-conflictAfterWrite.Issue,
			conflictAfterRead.Done-conflictAfterRead.Issue)
	}
}

func TestRefreshRowBasic(t *testing.T) {
	m := testModule()
	row := RowID{0, 0, 2, 77}
	res := refreshRow(m, 1000, row)
	if res.Kind != RefreshRASOnly {
		t.Error("kind wrong")
	}
	if res.ClosedOpenRow {
		t.Error("refresh of idle bank reported closed page")
	}
	tt := m.Timing()
	if res.Done-res.Issue < tt.TRefreshRow {
		t.Errorf("refresh duration %v < TRefreshRow %v", res.Done-res.Issue, tt.TRefreshRow)
	}
	if m.OpenRow(row.BankOf()) != -1 {
		t.Error("bank not precharged after refresh")
	}
	st := m.Stats()
	if st.RefreshOps != 1 || st.RefreshRASOnlyOps != 1 || st.RefreshCBROps != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRefreshClosesOpenPage(t *testing.T) {
	m := testModule()
	a := Address{RowID: RowID{0, 0, 0, 5}, Column: 0}
	r := access(m, 0, a, false)
	res := refreshRow(m, r.Done, RowID{0, 0, 0, 9})
	if !res.ClosedOpenRow || res.ClosedRow != a.RowID {
		t.Errorf("refresh did not close open page: %+v", res)
	}
	if m.Stats().RefreshConflictOps != 1 {
		t.Errorf("RefreshConflictOps = %d", m.Stats().RefreshConflictOps)
	}
}

func TestRefreshCBRCounterWraps(t *testing.T) {
	g := Geometry{Channels: 1, Ranks: 1, Banks: 2, Rows: 4, Columns: 8,
		DataWidthBits: 72, BurstLength: 4, DevicesPerRank: 2}
	tt := DDR2_667(64 * sim.Millisecond)
	tt.RefreshInterval = 64 * sim.Millisecond
	m := NewModule(g, tt)
	b := BankID{0, 0, 0}
	var rows []int
	var t0 sim.Time
	for i := 0; i < 6; i++ {
		res := refreshNextCBR(m, t0, b)
		rows = append(rows, res.Row.Row)
		t0 = res.Done
		if res.Kind != RefreshCBR {
			t.Error("kind wrong")
		}
	}
	want := []int{0, 1, 2, 3, 0, 1}
	for i := range want {
		if rows[i] != want[i] {
			t.Fatalf("CBR rows = %v, want %v", rows, want)
		}
	}
	// Other bank's counter must be independent.
	if m.CBRCounter(BankID{0, 0, 1}) != 0 {
		t.Error("CBR counters not per bank")
	}
}

func TestRefreshDelaysDemandAccess(t *testing.T) {
	m := testModule()
	row := RowID{0, 0, 0, 7}
	res := refreshRow(m, 0, row)
	// Demand access arriving mid-refresh must stall.
	acc := access(m, res.Issue+1, Address{RowID: RowID{0, 0, 0, 3}, Column: 0}, false)
	if acc.Issue < res.Done {
		t.Errorf("demand access issued at %v before refresh done %v", acc.Issue, res.Done)
	}
	if m.Stats().DemandStall == 0 {
		t.Error("demand stall not recorded")
	}
}

func TestBackgroundAccounting(t *testing.T) {
	m := testModule()
	a := Address{RowID: RowID{0, 0, 0, 5}, Column: 0}
	r := access(m, 1000, a, false)
	// Close the page via a conflict access long after.
	gap := sim.Time(1 * sim.Microsecond)
	access(m, r.Done+gap, Address{RowID: RowID{0, 0, 0, 9}, Column: 0}, false)
	m.Finalize(2 * sim.Microsecond)
	st := m.Stats()
	if st.ActiveTime == 0 {
		t.Error("no active time accumulated")
	}
	if st.IdleTime == 0 {
		t.Error("no idle time accumulated")
	}
	// Two ranks: rank 1 was never touched, so idle dominates overall.
	if st.IdleTime <= st.ActiveTime {
		t.Errorf("idle %v should exceed active %v here", st.IdleTime, st.ActiveTime)
	}
}

func TestFinalizeExtendsWindow(t *testing.T) {
	m := testModule()
	m.Finalize(1 * sim.Millisecond)
	st := m.Stats()
	total := st.ActiveTime + st.IdleTime
	// 2 ranks * 1 ms.
	if total != 2*sim.Millisecond {
		t.Errorf("residency total = %v, want 2ms", total)
	}
}

func TestAccessPanicsOnBadAddress(t *testing.T) {
	m := testModule()
	defer func() {
		if recover() == nil {
			t.Error("invalid address did not panic")
		}
	}()
	access(m, 0, Address{RowID: RowID{0, 0, 0, 1 << 20}, Column: 0}, false)
}

func TestRefreshPanicsOnBadRow(t *testing.T) {
	m := testModule()
	defer func() {
		if recover() == nil {
			t.Error("invalid row did not panic")
		}
	}()
	refreshRow(m, 0, RowID{0, 0, 9, 0})
}

// Property: command times never move backwards for a monotone request
// stream, and every result has Issue <= DataStart <= Done.
func TestAccessMonotoneProperty(t *testing.T) {
	g := Geometry{Channels: 1, Ranks: 2, Banks: 4, Rows: 64, Columns: 64,
		DataWidthBits: 72, BurstLength: 4, DevicesPerRank: 18}
	f := func(seed uint64, n uint8) bool {
		m := NewModule(g, DDR2_667(64*sim.Millisecond))
		rng := sim.NewRNG(seed)
		var t0 sim.Time
		var lastDone sim.Time
		for i := 0; i < int(n); i++ {
			addr := Address{
				RowID: RowID{
					Channel: 0,
					Rank:    rng.Intn(g.Ranks),
					Bank:    rng.Intn(g.Banks),
					Row:     rng.Intn(g.Rows),
				},
				Column: rng.Intn(g.Columns),
			}
			t0 += sim.Time(rng.Intn(100)) * sim.Nanosecond
			res := access(m, t0, addr, rng.Bool(0.3))
			if res.Issue < t0 || res.DataStart < res.Issue || res.Done < res.DataStart {
				return false
			}
			if res.Done < lastDone && false {
				// Different banks may complete out of order; only the bus
				// is ordered. Bus ordering checked below via DataStart.
				return false
			}
			lastDone = res.Done
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the shared data bus never carries two bursts at once.
func TestBusSerialisationProperty(t *testing.T) {
	g := Geometry{Channels: 1, Ranks: 2, Banks: 4, Rows: 64, Columns: 64,
		DataWidthBits: 72, BurstLength: 4, DevicesPerRank: 18}
	f := func(seed uint64) bool {
		m := NewModule(g, DDR2_667(64*sim.Millisecond))
		rng := sim.NewRNG(seed)
		var t0 sim.Time
		var busBusyUntil sim.Time
		for i := 0; i < 100; i++ {
			addr := Address{
				RowID: RowID{
					Channel: 0,
					Rank:    rng.Intn(g.Ranks),
					Bank:    rng.Intn(g.Banks),
					Row:     rng.Intn(g.Rows),
				},
				Column: rng.Intn(g.Columns),
			}
			res := access(m, t0, addr, false)
			if res.DataStart < busBusyUntil {
				return false
			}
			busBusyUntil = res.Done
			t0 += sim.Time(rng.Intn(20)) * sim.Nanosecond
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: accesses and refreshes to the same bank never overlap in time.
func TestBankExclusionProperty(t *testing.T) {
	g := Geometry{Channels: 1, Ranks: 1, Banks: 1, Rows: 32, Columns: 16,
		DataWidthBits: 72, BurstLength: 4, DevicesPerRank: 18}
	f := func(seed uint64) bool {
		m := NewModule(g, DDR2_667(64*sim.Millisecond))
		rng := sim.NewRNG(seed)
		var t0 sim.Time
		var busyUntil sim.Time
		for i := 0; i < 80; i++ {
			if rng.Bool(0.4) {
				res := refreshRow(m, t0, RowID{0, 0, 0, rng.Intn(g.Rows)})
				if res.Issue < busyUntil-m.Timing().TCK {
					return false
				}
				busyUntil = res.Done
			} else {
				res := access(m, t0, Address{RowID: RowID{0, 0, 0, rng.Intn(g.Rows)}, Column: 0}, false)
				_ = res
			}
			t0 += sim.Time(rng.Intn(50)) * sim.Nanosecond
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestActivateRateLimits: tRRD spaces activates to different banks of a
// rank, and tFAW bounds any four-activate window.
func TestActivateRateLimits(t *testing.T) {
	m := testModule()
	tt := m.Timing()
	var acts []sim.Time
	// Five back-to-back misses to five banks of one rank... the geometry
	// has 4 banks, so use 4 banks then the first again with another row.
	reqs := []Address{
		{RowID: RowID{0, 0, 0, 1}, Column: 0},
		{RowID: RowID{0, 0, 1, 1}, Column: 0},
		{RowID: RowID{0, 0, 2, 1}, Column: 0},
		{RowID: RowID{0, 0, 3, 1}, Column: 0},
		{RowID: RowID{0, 1, 0, 1}, Column: 0}, // other rank: unconstrained
	}
	for _, a := range reqs {
		res := access(m, 0, a, false)
		if !res.OpenedRowSet {
			t.Fatal("expected a row miss")
		}
		acts = append(acts, res.ActivateAt)
	}
	// Same-rank activates must be spaced by at least tRRD.
	for i := 1; i < 4; i++ {
		gap := acts[i] - acts[i-1]
		if gap < tt.TRRD {
			t.Errorf("activates %d and %d spaced %v < tRRD %v", i-1, i, gap, tt.TRRD)
		}
	}
	// The other rank's first activate must not be delayed by rank 0's
	// tFAW window.
	if acts[4] > acts[0]+tt.TRRD {
		t.Errorf("cross-rank activate delayed to %v", acts[4])
	}
}

func TestFourActivateWindow(t *testing.T) {
	g := Geometry{Channels: 1, Ranks: 1, Banks: 8, Rows: 16, Columns: 16,
		DataWidthBits: 72, BurstLength: 4, DevicesPerRank: 18}
	m := NewModule(g, DDR2_667(64*sim.Millisecond))
	tt := m.Timing()
	var acts []sim.Time
	for b := 0; b < 5; b++ {
		res := access(m, 0, Address{RowID: RowID{0, 0, b, 1}, Column: 0}, false)
		acts = append(acts, res.ActivateAt)
	}
	// The fifth activate must wait for tFAW after the first.
	if acts[4] < acts[0]+tt.TFAW {
		t.Errorf("fifth activate at %v violates tFAW window starting %v", acts[4], acts[0])
	}
}

func TestPrechargeBank(t *testing.T) {
	m := testModule()
	a := Address{RowID: RowID{0, 0, 0, 5}, Column: 0}
	res := access(m, 0, a, false)
	row, closed := m.PrechargeBank(res.Done+sim.Microsecond, BankID{0, 0, 0})
	if !closed || row != a.RowID {
		t.Fatalf("PrechargeBank = %v, %v", row, closed)
	}
	if m.OpenRow(BankID{0, 0, 0}) != -1 {
		t.Error("bank still open")
	}
	// Idempotent on a closed bank.
	if _, closed := m.PrechargeBank(res.Done+2*sim.Microsecond, BankID{0, 0, 0}); closed {
		t.Error("precharge of closed bank reported a row")
	}
}

func TestPrechargeBankHonoursTRAS(t *testing.T) {
	m := testModule()
	a := Address{RowID: RowID{0, 0, 0, 5}, Column: 0}
	res := access(m, 0, a, false)
	// Request the precharge immediately; it must not complete before
	// tRAS after the activate.
	m.PrechargeBank(res.Issue, BankID{0, 0, 0})
	if m.BankReadyAt(BankID{0, 0, 0}) < res.Issue+m.Timing().TRAS {
		t.Errorf("precharge completed before tRAS")
	}
}

// TestPowerDownDisabledByDefault checks that the schema-only
// PowerDownTime field stays zero: idle spans, power-down rungs and
// self-refresh are reported in their own fields.
func TestPowerDownDisabledByDefault(t *testing.T) {
	m := testModule()
	a := Address{RowID: RowID{0, 0, 0, 5}, Column: 0}
	res := access(m, 0, a, false)
	m.PrechargeBank(res.Done, BankID{0, 0, 0})
	m.EnterPowerDown(res.Done+sim.Microsecond, 0, 0, PDPrechargeFast)
	m.EnterSelfRefresh(0, 0, 1)
	m.Finalize(10 * sim.Microsecond)
	m.Finalize(20 * sim.Microsecond)
	st := m.Stats()
	if st.PowerDownTime != 0 {
		t.Errorf("PowerDownTime = %v, want 0", st.PowerDownTime)
	}
	if st.PrePdnFastTime == 0 || st.SelfRefreshTime == 0 {
		t.Errorf("ladder residency not reported: %+v", st)
	}
}

func TestSelfRefreshResidency(t *testing.T) {
	m := testModule()
	m.EnterSelfRefresh(sim.Millisecond, 0, 0)
	if !m.InSelfRefresh(0, 0) {
		t.Fatal("rank not in self-refresh")
	}
	ready := m.ExitSelfRefresh(5*sim.Millisecond, 0, 0)
	if m.InSelfRefresh(0, 0) {
		t.Fatal("rank still in self-refresh")
	}
	if ready < 5*sim.Millisecond+m.Timing().TXSNR {
		t.Errorf("exit ready %v before tXSNR", ready)
	}
	m.Finalize(6 * sim.Millisecond)
	st := m.Stats()
	if st.SelfRefreshTime != 4*sim.Millisecond {
		t.Errorf("SR time = %v, want 4ms", st.SelfRefreshTime)
	}
	if st.SelfRefreshEntries != 1 {
		t.Errorf("entries = %d", st.SelfRefreshEntries)
	}
	// Post-exit access honours the exit latency.
	res := access(m, 5*sim.Millisecond, Address{RowID: RowID{0, 0, 0, 1}, Column: 0}, false)
	if res.Issue < ready {
		t.Errorf("access issued at %v before exit ready %v", res.Issue, ready)
	}
}

func TestSelfRefreshGuards(t *testing.T) {
	m := testModule()
	// Access to a rank in self-refresh panics.
	m.EnterSelfRefresh(0, 0, 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("access to SR rank did not panic")
			}
		}()
		access(m, 1, Address{RowID: RowID{0, 0, 0, 1}, Column: 0}, false)
	}()
	// Double entry panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double SR entry did not panic")
			}
		}()
		m.EnterSelfRefresh(1, 0, 0)
	}()
	// Exit of a rank not in SR panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("exit of non-SR rank did not panic")
			}
		}()
		m.ExitSelfRefresh(1, 0, 1)
	}()
	// Entry with an open page panics.
	m2 := testModule()
	access(m2, 0, Address{RowID: RowID{0, 0, 0, 1}, Column: 0}, false)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SR entry with open page did not panic")
			}
		}()
		m2.EnterSelfRefresh(sim.Microsecond, 0, 0)
	}()
	// The other rank can still operate during rank 0's self-refresh.
	if res := access(m, 2, Address{RowID: RowID{0, 1, 0, 1}, Column: 0}, false); res.Done == 0 {
		t.Error("rank 1 blocked by rank 0 self-refresh")
	}
}

// A self-refresh entry decided on a wall-clock idle deadline can land
// while queued refreshes are still chaining through the rank's banks;
// the module must clamp the entry behind the busy horizon, or the
// overlap is double-counted as both active and self-refresh residency.
func TestSelfRefreshEntryClampedBehindBusyRank(t *testing.T) {
	m := testModule()
	// Queue a burst of back-to-back CBR refreshes on one bank: each
	// occupies the bank for TRefreshRow, pushing its ready horizon far
	// past the submission time.
	const ops = 1000
	var horizon sim.Time
	for i := 0; i < ops; i++ {
		res := refreshNextCBR(m, 0, BankID{Channel: 0, Rank: 0, Bank: 0})
		horizon = res.Done
	}
	if horizon < sim.Time(ops)*sim.Time(m.Timing().TRefreshRow) {
		t.Fatalf("refresh chain ends at %v, expected at least %v serialised",
			horizon, sim.Time(ops)*sim.Time(m.Timing().TRefreshRow))
	}

	// Entry requested mid-chain: must be deferred to the busy horizon.
	entered := m.EnterSelfRefresh(sim.Microsecond, 0, 0)
	if entered < horizon {
		t.Errorf("entry at %v predates the rank's busy horizon %v", entered, horizon)
	}

	end := 2 * horizon
	m.Finalize(end)
	st := m.Stats()
	if want := sim.Duration(end - entered); st.SelfRefreshTime != want {
		t.Errorf("SR time = %v, want %v (entry clamped to %v)", st.SelfRefreshTime, want, entered)
	}
	if st.SelfRefreshTime > st.IdleTime {
		t.Errorf("SR time %v exceeds idle time %v", st.SelfRefreshTime, st.IdleTime)
	}
}

func TestModuleStatsSub(t *testing.T) {
	a := ModuleStats{Accesses: 10, Reads: 7, RefreshOps: 5, ActiveTime: 100, DemandStall: 30}
	b := ModuleStats{Accesses: 4, Reads: 2, RefreshOps: 1, ActiveTime: 40, DemandStall: 10}
	d := a.Sub(b)
	if d.Accesses != 6 || d.Reads != 5 || d.RefreshOps != 4 || d.ActiveTime != 60 || d.DemandStall != 20 {
		t.Errorf("Sub = %+v", d)
	}
}

func TestRefreshKindString(t *testing.T) {
	if RefreshCBR.String() != "CBR" || RefreshRASOnly.String() != "RAS-only" {
		t.Error("RefreshKind strings wrong")
	}
	if RefreshKind(9).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestAccessLatencyHelper(t *testing.T) {
	m := testModule()
	res := access(m, 100, Address{RowID: RowID{0, 0, 0, 0}, Column: 0}, false)
	if res.Latency(100) != res.Done-100 {
		t.Error("Latency helper wrong")
	}
}
