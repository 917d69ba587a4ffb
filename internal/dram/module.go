package dram

import (
	"fmt"

	"smartrefresh/internal/sim"
	"smartrefresh/internal/telemetry"
)

// RefreshKind distinguishes the two refresh command styles (section 3 of
// the paper).
type RefreshKind int

const (
	// RefreshCBR is CAS-before-RAS refresh: the module-internal counter
	// supplies the row address, so nothing is driven on the address bus.
	// The paper's baseline uses distributed CBR.
	RefreshCBR RefreshKind = iota
	// RefreshRASOnly is RAS-only refresh: the controller drives the row
	// address, which Smart Refresh requires (it refreshes specific rows out
	// of order) and which costs extra bus energy.
	RefreshRASOnly
	// RefreshPerBank is a bank-granular refresh command (REFpb): the
	// bank's internal counter supplies the row (no address-bus energy,
	// like CBR), but only the addressed bank is occupied — the other
	// banks of the rank keep serving demand. This is the LPDDR/HBM-style
	// command the refresh-access-parallelism policies (DARP, SARP) build
	// on.
	RefreshPerBank
	// RefreshAllBank is the conventional all-bank refresh command
	// (REFab): one counter row per bank, every bank of the rank frozen
	// for tRFCab. No policy issues it and the module has no command path
	// for it; the kind and ModuleStats.RefreshAllBankOps keep the stats
	// schema and the refresh-op decomposition in their full form.
	RefreshAllBank
)

// String names the refresh kind.
func (k RefreshKind) String() string {
	switch k {
	case RefreshCBR:
		return "CBR"
	case RefreshRASOnly:
		return "RAS-only"
	case RefreshPerBank:
		return "per-bank"
	case RefreshAllBank:
		return "all-bank"
	default:
		return fmt.Sprintf("RefreshKind(%d)", int(k))
	}
}

// AccessResult describes the outcome of one demand read or write.
type AccessResult struct {
	Issue     sim.Time // when the first command issued (after bank ready)
	DataStart sim.Time // first data beat on the bus
	Done      sim.Time // last data beat on the bus
	RowHit    bool     // open-page hit: no activate needed
	Conflict  bool     // another row was open and had to be closed

	// ClosedRow is set when the access precharged a previously open row
	// (conflict). Closing a page restores the cells, which resets that
	// row's Smart Refresh counter.
	ClosedRow    RowID
	ClosedRowSet bool

	// OpenedRow is set when the access activated a row (miss or conflict).
	OpenedRow    RowID
	OpenedRowSet bool

	// ActivateAt is the activate command time when OpenedRowSet (after
	// bank, tRRD and tFAW constraints).
	ActivateAt sim.Time
}

// Latency returns the demand latency from request to last data beat.
func (r AccessResult) Latency(requested sim.Time) sim.Duration {
	return r.Done - requested
}

// RefreshResult describes the outcome of one refresh operation.
type RefreshResult struct {
	Row  RowID
	Kind RefreshKind
	// Issue..Done is the bank occupancy of the refresh.
	Issue sim.Time
	Done  sim.Time
	// ClosedOpenRow is true when the refresh found the bank with an open
	// page and had to close it first — the extra-energy case the paper
	// calls out when explaining why refresh-count and refresh-energy
	// reductions are not linearly related.
	ClosedOpenRow bool
	ClosedRow     RowID
}

// set starts a refresh result, field by field so no struct-sized zero or
// copy is made; the caller sets Done, and refreshClose the closed page.
func (r *RefreshResult) set(row RowID, kind RefreshKind, issue sim.Time) {
	r.Row, r.Kind, r.Issue, r.Done = row, kind, issue, 0
	r.ClosedOpenRow, r.ClosedRow = false, RowID{}
}

// ModuleStats aggregates the activity counts and state-residency times the
// power model consumes.
type ModuleStats struct {
	Accesses     uint64
	Reads        uint64
	Writes       uint64
	RowHits      uint64
	RowMisses    uint64 // bank precharged, activate needed
	RowConflicts uint64 // other row open, precharge + activate needed
	Activates    uint64
	Precharges   uint64

	// RefreshOps counts row-refresh operations of every kind; the
	// invariant RefreshOps == RefreshCBROps + RefreshRASOnlyOps +
	// RefreshPerBankOps + Banks×RefreshAllBankOps holds (one REFab
	// restores one counter row in each bank of the rank).
	RefreshOps         uint64
	RefreshCBROps      uint64
	RefreshRASOnlyOps  uint64
	RefreshPerBankOps  uint64 // REFpb row refreshes
	RefreshOverlapOps  uint64 // subset of RefreshPerBankOps issued overlapped (SARP)
	RefreshAllBankOps  uint64 // REFab commands (each restores Banks rows)
	RefreshConflictOps uint64 // refreshes that had to close an open page

	// Background state residency summed over all ranks: a rank is active
	// while any of its banks has an open row, idle otherwise.
	ActiveTime sim.Duration
	IdleTime   sim.Duration

	// PowerDownTime is always zero. It is kept so the result schema (and
	// the fingerprints and checkpoints built on it) stays unchanged;
	// power-down residency is reported per rung by the power-state ladder
	// fields below.
	PowerDownTime sim.Duration

	// SelfRefreshTime is the part of IdleTime spent in self-refresh mode
	// (the module refreshes itself from its internal oscillator at IDD6);
	// SelfRefreshEntries counts mode entries.
	SelfRefreshTime    sim.Duration
	SelfRefreshEntries uint64

	// Explicit power-state residencies, tracked when the controller runs
	// the per-rank power-state machine (EnablePowerStates). ActPdnTime is
	// a subset of ActiveTime (pages stay open in ACT-PDN); the PRE-PDN
	// residencies are subsets of IdleTime, disjoint from SelfRefreshTime;
	// SelfRefreshSlowTime is the slow-wake (DLL-off) subset of
	// SelfRefreshTime. PowerDownEntries counts CKE-low mode entries of
	// every power-down kind (deepenings included).
	ActPdnTime          sim.Duration
	PrePdnFastTime      sim.Duration
	PrePdnSlowTime      sim.Duration
	SelfRefreshSlowTime sim.Duration
	PowerDownEntries    uint64

	// PowerStatesTracked marks the snapshot as produced under the
	// explicit power-state machine: the power model then integrates
	// background energy over the residency vector above instead of the
	// two-state active/standby split. Sub preserves the flag and Add ORs
	// it, so windowed and folded snapshots keep the evaluation mode.
	PowerStatesTracked bool

	// DemandStall accumulates time demand accesses spent waiting for a
	// bank that was busy (including refresh occupancy); this drives the
	// Figure 18 performance comparison.
	DemandStall sim.Duration
}

// Sub returns the field-wise difference s - earlier; the experiment
// harness uses it to exclude warmup from measured windows.
func (s ModuleStats) Sub(earlier ModuleStats) ModuleStats {
	return ModuleStats{
		Accesses:           s.Accesses - earlier.Accesses,
		Reads:              s.Reads - earlier.Reads,
		Writes:             s.Writes - earlier.Writes,
		RowHits:            s.RowHits - earlier.RowHits,
		RowMisses:          s.RowMisses - earlier.RowMisses,
		RowConflicts:       s.RowConflicts - earlier.RowConflicts,
		Activates:          s.Activates - earlier.Activates,
		Precharges:         s.Precharges - earlier.Precharges,
		RefreshOps:         s.RefreshOps - earlier.RefreshOps,
		RefreshCBROps:      s.RefreshCBROps - earlier.RefreshCBROps,
		RefreshRASOnlyOps:  s.RefreshRASOnlyOps - earlier.RefreshRASOnlyOps,
		RefreshPerBankOps:  s.RefreshPerBankOps - earlier.RefreshPerBankOps,
		RefreshOverlapOps:  s.RefreshOverlapOps - earlier.RefreshOverlapOps,
		RefreshAllBankOps:  s.RefreshAllBankOps - earlier.RefreshAllBankOps,
		RefreshConflictOps: s.RefreshConflictOps - earlier.RefreshConflictOps,
		ActiveTime:         s.ActiveTime - earlier.ActiveTime,
		IdleTime:           s.IdleTime - earlier.IdleTime,
		SelfRefreshTime:    s.SelfRefreshTime - earlier.SelfRefreshTime,
		SelfRefreshEntries: s.SelfRefreshEntries - earlier.SelfRefreshEntries,
		DemandStall:        s.DemandStall - earlier.DemandStall,

		ActPdnTime:          s.ActPdnTime - earlier.ActPdnTime,
		PrePdnFastTime:      s.PrePdnFastTime - earlier.PrePdnFastTime,
		PrePdnSlowTime:      s.PrePdnSlowTime - earlier.PrePdnSlowTime,
		SelfRefreshSlowTime: s.SelfRefreshSlowTime - earlier.SelfRefreshSlowTime,
		PowerDownEntries:    s.PowerDownEntries - earlier.PowerDownEntries,
		PowerStatesTracked:  s.PowerStatesTracked,
	}
}

// Add returns the element-wise sum of two stat snapshots, used to
// aggregate per-vault modules into stack-level totals.
func (s ModuleStats) Add(o ModuleStats) ModuleStats {
	return ModuleStats{
		Accesses:           s.Accesses + o.Accesses,
		Reads:              s.Reads + o.Reads,
		Writes:             s.Writes + o.Writes,
		RowHits:            s.RowHits + o.RowHits,
		RowMisses:          s.RowMisses + o.RowMisses,
		RowConflicts:       s.RowConflicts + o.RowConflicts,
		Activates:          s.Activates + o.Activates,
		Precharges:         s.Precharges + o.Precharges,
		RefreshOps:         s.RefreshOps + o.RefreshOps,
		RefreshCBROps:      s.RefreshCBROps + o.RefreshCBROps,
		RefreshRASOnlyOps:  s.RefreshRASOnlyOps + o.RefreshRASOnlyOps,
		RefreshPerBankOps:  s.RefreshPerBankOps + o.RefreshPerBankOps,
		RefreshOverlapOps:  s.RefreshOverlapOps + o.RefreshOverlapOps,
		RefreshAllBankOps:  s.RefreshAllBankOps + o.RefreshAllBankOps,
		RefreshConflictOps: s.RefreshConflictOps + o.RefreshConflictOps,
		ActiveTime:         s.ActiveTime + o.ActiveTime,
		IdleTime:           s.IdleTime + o.IdleTime,
		SelfRefreshTime:    s.SelfRefreshTime + o.SelfRefreshTime,
		SelfRefreshEntries: s.SelfRefreshEntries + o.SelfRefreshEntries,
		DemandStall:        s.DemandStall + o.DemandStall,

		ActPdnTime:          s.ActPdnTime + o.ActPdnTime,
		PrePdnFastTime:      s.PrePdnFastTime + o.PrePdnFastTime,
		PrePdnSlowTime:      s.PrePdnSlowTime + o.PrePdnSlowTime,
		SelfRefreshSlowTime: s.SelfRefreshSlowTime + o.SelfRefreshSlowTime,
		PowerDownEntries:    s.PowerDownEntries + o.PowerDownEntries,
		PowerStatesTracked:  s.PowerStatesTracked || o.PowerStatesTracked,
	}
}

// Every time stored in bankState, rankState's activate trackers and
// channelState is a command-clock edge (see Module.entry), so a timing
// step is an add of a delay from cycleDelays.
type bankState struct {
	openRow       int // -1 when precharged
	readyAt       sim.Time
	prechargeOKAt sim.Time // tRAS / write-recovery constraint
	activateOKAt  sim.Time // tRC constraint

	// Overlapped (SARP-style) refresh in flight: until srefUntil, demand
	// to the refreshing subarray (srefSub) must wait, while the rest of
	// the bank keeps serving. Zero when no overlapped refresh is active.
	srefUntil sim.Time
	srefSub   int
}

type rankState struct {
	openBanks  int
	lastUpdate sim.Time
	activeTime sim.Duration
	idleTime   sim.Duration

	// Activate-rate limits: lastActivate enforces tRRD (activate to
	// activate, different banks of one rank); actWindow holds the last
	// four activate times for the rolling-four-activate window tFAW.
	lastActivate sim.Time
	actWindow    [4]sim.Time
	actWindowPos int

	// Self-refresh state: while inSelfRefresh, the module maintains
	// retention internally and accepts no commands for this rank.
	inSelfRefresh   bool
	srSince         sim.Time
	selfRefreshTime sim.Duration

	// Slow-wake self-refresh: set when the controller deepens an
	// in-progress self-refresh to the DLL-off mode; exit then pays the
	// relock latency and the [srSlowSince, exit] span draws IDD6L.
	srSlow      bool
	srSlowSince sim.Time
	srSlowTime  sim.Duration

	// Explicit controller-driven power-down (EnterPowerDown): the rank
	// has been in pdKind since pdSince; per-kind accumulators fold at
	// exit and Finalize.
	pdKind      PowerDownKind
	pdSince     sim.Time
	actPdnTime  sim.Duration
	preFastTime sim.Duration
	preSlowTime sim.Duration
}

// activateOKAt returns the earliest time a new activate may issue in the
// rank under tRRD and tFAW.
func (r *rankState) activateOKAt(d *cycleDelays) sim.Time {
	earliest := r.lastActivate + d.tRRD
	// The oldest of the last four activates bounds the fifth.
	oldest := r.actWindow[r.actWindowPos]
	if faw := oldest + d.tFAW; faw > earliest {
		earliest = faw
	}
	return earliest
}

// recordActivate notes an activate at time at.
func (r *rankState) recordActivate(at sim.Time) {
	r.lastActivate = at
	r.actWindow[r.actWindowPos] = at
	r.actWindowPos = (r.actWindowPos + 1) % len(r.actWindow)
}

type channelState struct {
	busFreeAt sim.Time // first edge at or after the last data beat
}

// cycleDelays holds the command delays rounded up to whole command clocks
// once, at construction. Every stored command time is a clock edge, and
// for an edge e and a delay d, Next(e+d) = e + Next(d); so each timing
// step of the command path is one add, with no rounding per command.
type cycleDelays struct {
	tRCD, tRP, tCL, tRAS, tRC, tRTP, tCCD, tRRD, tFAW sim.Duration

	burst   sim.Duration // data-bus occupancy of one burst
	burstWR sim.Duration // data start to precharge after a write: burst + tWR
	refRow  sim.Duration // TRefreshRow: RAS-only and CBR refresh occupancy
	refPB   sim.Duration // PerBankRefreshDuration: REFpb occupancy
}

// newCycleDelays rounds t's delays for a burst of bl beats up to whole
// periods of clk.
func newCycleDelays(t Timing, bl int, clk sim.Clock) cycleDelays {
	up := func(d sim.Duration) sim.Duration { return sim.Duration(clk.Cycles(d)) * clk.Period() }
	burst := t.BurstDuration(bl)
	return cycleDelays{
		tRCD: up(t.TRCD), tRP: up(t.TRP), tCL: up(t.TCL), tRAS: up(t.TRAS),
		tRC: up(t.TRC), tRTP: up(t.TRTP), tCCD: up(t.TCCD), tRRD: up(t.TRRD),
		tFAW:    up(t.TFAW),
		burst:   up(burst),
		burstWR: up(burst + t.TWR),
		refRow:  up(t.TRefreshRow),
		refPB:   up(t.PerBankRefreshDuration()),
	}
}

// Module is a DRAM module with open-page row-buffer policy. It is not safe
// for concurrent use; the simulator is single-threaded by design.
type Module struct {
	geom Geometry
	tim  Timing
	clk  sim.Clock

	// Hot-path constants derived from geom and tim at construction, so
	// the per-command paths never copy the Geometry or Timing structs
	// (both too large for register passing) into a by-value call.
	nChannels, nRanks, nBanks, nRows, nColumns int
	burst                                      sim.Duration // BurstDuration(BurstLength), unrounded
	exitFast, exitSlow                         sim.Duration // PowerDownExitFast/Slow()
	d                                          cycleDelays

	banks    []bankState
	ranks    []rankState
	channels []channelState

	// cbrCounters holds the module-internal CBR row counter per bank. The
	// counter initialises to zero at power-up and wraps at Rows; it cannot
	// be reset (section 3). Per-bank refresh (REFpb) and all-bank refresh
	// (REFab) walk the same counters — JEDEC specifies a single internal
	// refresh pointer per bank regardless of command style.
	cbrCounters []int

	// subRows is the number of rows per subarray, used by the overlapped
	// (SARP-style) per-bank refresh to decide which demand rows conflict
	// with an in-flight refresh. Fixed at Rows/subarraysPerBank.
	subRows int

	stats ModuleStats
	now   sim.Time // latest time observed, for Finalize

	// trace, when non-nil, receives one timeline event per DRAM command
	// (ACT/PRE/READ/WRITE and both refresh kinds) on the flat-bank
	// thread. The nil check is the entire disabled-path cost.
	trace *telemetry.Scope
}

// NewModule constructs a module; it panics on invalid configuration
// because a bad configuration is a programming error, not a runtime
// condition.
func NewModule(g Geometry, t Timing) *Module {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	if err := t.Validate(); err != nil {
		panic(err)
	}
	m := &Module{
		geom:        g,
		tim:         t,
		clk:         sim.NewClock(t.TCK),
		nChannels:   g.Channels,
		nRanks:      g.Ranks,
		nBanks:      g.Banks,
		nRows:       g.Rows,
		nColumns:    g.Columns,
		burst:       t.BurstDuration(g.BurstLength),
		exitFast:    t.PowerDownExitFast(),
		exitSlow:    t.PowerDownExitSlow(),
		banks:       make([]bankState, g.TotalBanks()),
		ranks:       make([]rankState, g.Channels*g.Ranks),
		channels:    make([]channelState, g.Channels),
		cbrCounters: make([]int, g.TotalBanks()),
		subRows:     subarrayRows(g.Rows),
	}
	m.d = newCycleDelays(t, g.BurstLength, m.clk)
	for i := range m.banks {
		m.banks[i].openRow = -1
	}
	// Seed the activate-rate trackers far in the past (on a clock edge,
	// like every stored command time) so the first activates are not
	// rate-limited by the zero value.
	farPast := (sim.Time(-1) << 40) / t.TCK * t.TCK
	for i := range m.ranks {
		m.ranks[i].lastActivate = farPast
		for j := range m.ranks[i].actWindow {
			m.ranks[i].actWindow[j] = farPast
		}
	}
	return m
}

// SetTraceScope attaches a command tracer to the module and labels one
// trace thread per flat bank. A nil scope disables tracing (the
// default). Call before simulation starts.
func (m *Module) SetTraceScope(s *telemetry.Scope) {
	m.trace = s
	if s == nil {
		return
	}
	for ch := 0; ch < m.geom.Channels; ch++ {
		for rk := 0; rk < m.geom.Ranks; rk++ {
			for b := 0; b < m.geom.Banks; b++ {
				id := BankID{Channel: ch, Rank: rk, Bank: b}
				s.NameThread(id.Flat(m.geom), fmt.Sprintf("ch%d/rk%d/bk%d", ch, rk, b))
			}
		}
	}
}

// TraceScope returns the attached command tracer scope (nil when
// tracing is disabled), so the owning controller can emit its own
// events onto the same process.
func (m *Module) TraceScope() *telemetry.Scope { return m.trace }

// Geometry returns the module geometry.
func (m *Module) Geometry() Geometry { return m.geom }

// Timing returns the module timing.
func (m *Module) Timing() Timing { return m.tim }

// Stats returns a snapshot of the accumulated statistics. Call Finalize
// first to flush background-state residency up to the end of simulation.
func (m *Module) Stats() ModuleStats { return m.stats }

func (m *Module) rankIndex(ch, rank int) int { return ch*m.nRanks + rank }

// bankIndex is BankID.Flat over the cached geometry; the banks of flat
// rank ri occupy [ri*nBanks, (ri+1)*nBanks).
func (m *Module) bankIndex(ch, rank, bank int) int { return (ch*m.nRanks+rank)*m.nBanks + bank }

// validRow is RowID.Valid over the cached geometry.
func (m *Module) validRow(r RowID) bool {
	return r.Channel >= 0 && r.Channel < m.nChannels &&
		r.Rank >= 0 && r.Rank < m.nRanks &&
		r.Bank >= 0 && r.Bank < m.nBanks &&
		r.Row >= 0 && r.Row < m.nRows
}

func (m *Module) observe(t sim.Time) {
	if t > m.now {
		m.now = t
	}
}

// updateRank accumulates background residency for a rank up to time t.
func (m *Module) updateRank(ri int, t sim.Time) {
	r := &m.ranks[ri]
	if t <= r.lastUpdate {
		return
	}
	d := t - r.lastUpdate
	if r.openBanks > 0 {
		r.activeTime += d
	} else {
		r.idleTime += d
	}
	r.lastUpdate = t
}

// openBank transitions a bank to open at time t.
func (m *Module) openBank(b *bankState, ri int, row int, t sim.Time) {
	m.updateRank(ri, t)
	if b.openRow == -1 {
		m.ranks[ri].openBanks++
	}
	b.openRow = row
}

// closeBank transitions a bank to precharged at time t.
func (m *Module) closeBank(b *bankState, ri int, t sim.Time) {
	m.updateRank(ri, t)
	if b.openRow != -1 {
		m.ranks[ri].openBanks--
	}
	b.openRow = -1
}

// entry returns the clock edge a command presented at the outside time t
// issues at, given ready, the stored edge its bank is busy until. This is
// where a time from outside the module is rounded onto the command clock,
// once; when the bank is busy past t no rounding is needed, since
// Next(max(t, ready)) = max(Next(t), ready) for an edge ready.
func (m *Module) entry(t, ready sim.Time) sim.Time {
	if t > ready {
		return m.clk.Next(t)
	}
	return ready
}

// Access performs one demand read or write under the open-page policy and
// fills res with the command/data timing plus which rows were opened or
// closed; every field of res is overwritten. The request is presented at
// time t; if the bank is busy the access stalls until it is ready.
// Filling a caller-owned result keeps the 120-byte struct from being
// copied out on every access.
func (m *Module) Access(t sim.Time, addr Address, write bool, res *AccessResult) {
	if !m.validRow(addr.RowID) || addr.Column < 0 || addr.Column >= m.nColumns {
		panic(fmt.Sprintf("dram: access to invalid address %+v", addr))
	}
	m.observe(t)
	bi := m.bankIndex(addr.Channel, addr.Rank, addr.Bank)
	ri := m.rankIndex(addr.Channel, addr.Rank)
	if m.ranks[ri].inSelfRefresh {
		panic(fmt.Sprintf("dram: access to rank ch%d/rk%d in self-refresh", addr.Channel, addr.Rank))
	}
	b := &m.banks[bi]
	ch := &m.channels[addr.Channel]

	ready := b.readyAt
	if b.srefUntil > t && addr.Row/m.subRows == b.srefSub && b.srefUntil > ready {
		// An overlapped refresh is restoring this row's subarray: demand
		// to it serializes behind the refresh (other subarrays proceed).
		ready = b.srefUntil
	}
	issue := m.entry(t, ready)
	if issue > t {
		m.stats.DemandStall += issue - t
	}
	// Field by field, so no struct-sized zero or copy is made; DataStart
	// and Done are set below.
	res.Issue, res.RowHit, res.Conflict = issue, false, false
	res.ClosedRow, res.ClosedRowSet = RowID{}, false
	res.OpenedRow, res.OpenedRowSet = RowID{}, false
	res.ActivateAt = 0

	cas := issue // when the column command can go
	if b.openRow == addr.Row {
		// Row hit: column command straight away.
		res.RowHit = true
		m.stats.RowHits++
	} else {
		act := issue
		if b.openRow == -1 {
			// Bank precharged: activate then column command.
			m.stats.RowMisses++
		} else {
			// Conflict: close the open page (restoring its cells), then
			// activate the requested row.
			m.stats.RowConflicts++
			res.Conflict = true
			pre := sim.Max(issue, b.prechargeOKAt)
			res.ClosedRow = RowID{Channel: addr.Channel, Rank: addr.Rank, Bank: addr.Bank, Row: b.openRow}
			res.ClosedRowSet = true
			if m.trace != nil {
				m.trace.Command(telemetry.CmdPrecharge, bi, b.openRow, pre, pre+m.tim.TRP)
			}
			m.closeBank(b, ri, pre)
			m.stats.Precharges++
			act = pre + m.d.tRP
		}
		act = sim.Max(act, b.activateOKAt)
		act = sim.Max(act, m.ranks[ri].activateOKAt(&m.d))
		m.openBank(b, ri, addr.Row, act)
		m.ranks[ri].recordActivate(act)
		m.stats.Activates++
		b.activateOKAt = act + m.d.tRC
		b.prechargeOKAt = act + m.d.tRAS
		cas = act + m.d.tRCD
		res.OpenedRow, res.OpenedRowSet = addr.RowID, true
		res.ActivateAt = act
		if m.trace != nil {
			m.trace.Command(telemetry.CmdActivate, bi, addr.Row, act, cas)
		}
	}

	dataStart := sim.Max(cas+m.d.tCL, ch.busFreeAt)
	// The last data beat need not fall on an edge (an odd burst length);
	// the bus is free again at the first edge after it.
	dataDone := dataStart + m.burst
	ch.busFreeAt = dataStart + m.d.burst
	res.DataStart = dataStart
	res.Done = dataDone

	// Next column command to this bank.
	b.readyAt = sim.Max(cas+m.d.tCCD, dataStart)
	// Write recovery / read-to-precharge constraints.
	if write {
		m.stats.Writes++
		b.prechargeOKAt = sim.Max(b.prechargeOKAt, dataStart+m.d.burstWR)
		if m.trace != nil {
			m.trace.Command(telemetry.CmdWrite, bi, addr.Row, dataStart, dataDone)
		}
	} else {
		m.stats.Reads++
		b.prechargeOKAt = sim.Max(b.prechargeOKAt, cas+m.d.tRTP)
		if m.trace != nil {
			m.trace.Command(telemetry.CmdRead, bi, addr.Row, dataStart, dataDone)
		}
	}
	m.stats.Accesses++
	m.observe(dataDone)
}

// RefreshRow performs a RAS-only refresh of the addressed row: the
// controller supplies the row address. If the bank has an open page it is
// closed first (counted as a conflict refresh; this is the higher-energy
// case the paper describes). Like every refresh operation it fills the
// caller-owned res, overwriting every field.
func (m *Module) RefreshRow(t sim.Time, row RowID, res *RefreshResult) {
	m.refreshDur(t, row, RefreshRASOnly, m.d.refRow, res)
}

// RefreshNextCBR performs a CBR refresh on the given bank: the module's
// internal counter supplies the row and then increments, wrapping at the
// row count (section 3: "There is no way to reset the counter once set").
func (m *Module) RefreshNextCBR(t sim.Time, bank BankID, res *RefreshResult) {
	m.refreshDur(t, m.nextCounterRow(bank), RefreshCBR, m.d.refRow, res)
}

// CBRCounter exposes a bank's internal refresh counter (for tests).
func (m *Module) CBRCounter(bank BankID) int {
	return m.cbrCounters[m.bankIndex(bank.Channel, bank.Rank, bank.Bank)]
}

// nextCounterRow reads and advances a bank's internal refresh counter.
func (m *Module) nextCounterRow(bank BankID) RowID {
	bi := m.bankIndex(bank.Channel, bank.Rank, bank.Bank)
	row := RowID{Channel: bank.Channel, Rank: bank.Rank, Bank: bank.Bank, Row: m.cbrCounters[bi]}
	m.cbrCounters[bi] = (m.cbrCounters[bi] + 1) % m.nRows
	return row
}

// subarraysPerBank is the fixed subarray count the overlapped refresh
// model assumes; commodity banks are built from tens of subarrays, so 8
// is a conservative (pessimistic-conflict) choice.
const subarraysPerBank = 8

// subarrayRows returns the rows per subarray for a bank of rows rows.
func subarrayRows(rows int) int {
	n := rows / subarraysPerBank
	if n < 1 {
		n = 1
	}
	return n
}

// RefreshBank performs a per-bank refresh (REFpb) on the given bank: the
// bank's internal counter supplies the row, only this bank is occupied
// (for Timing.PerBankRefreshDuration), and the rank's other banks keep
// serving demand. An open page is closed first, as with the other
// refresh styles.
func (m *Module) RefreshBank(t sim.Time, bank BankID, res *RefreshResult) {
	m.refreshDur(t, m.nextCounterRow(bank), RefreshPerBank, m.d.refPB, res)
}

// RefreshBankOverlapped performs a per-bank refresh that parallelizes
// with demand to the same bank, approximating SARP (Chang et al.): the
// refresh restores its counter row's subarray for the full
// PerBankRefreshDuration and charges full refresh energy, but the bank
// only blocks demand to the refreshing subarray — accesses to the other
// subarrays proceed, and an open page in another subarray stays open.
// The rank-level activate-rate limits (tRRD, tFAW) still apply, since
// the hidden activate draws real current.
func (m *Module) RefreshBankOverlapped(t sim.Time, bank BankID, res *RefreshResult) {
	row := m.nextCounterRow(bank)
	if !m.validRow(row) {
		panic(fmt.Sprintf("dram: refresh of invalid row %+v", row))
	}
	m.observe(t)
	bi := m.bankIndex(row.Channel, row.Rank, row.Bank)
	ri := m.rankIndex(row.Channel, row.Rank)
	if m.ranks[ri].inSelfRefresh {
		panic(fmt.Sprintf("dram: refresh to rank ch%d/rk%d in self-refresh", row.Channel, row.Rank))
	}
	b := &m.banks[bi]

	issue := m.entry(t, b.readyAt)
	res.set(row, RefreshPerBank, issue)
	start := issue

	if b.openRow != -1 && b.openRow/m.subRows == row.Row/m.subRows {
		// The open page lives in the refreshing subarray: it must close
		// first — the same conflict case as a blocking refresh.
		start = m.refreshClose(res, bi, row, issue)
	}
	start = sim.Max(start, m.ranks[ri].activateOKAt(&m.d))
	m.ranks[ri].recordActivate(start)
	done := start + m.d.refPB

	if b.openRow == -1 {
		// Bank precharged: the refresh is the only activity; count the
		// rank active for its duration, bank commandable again almost
		// immediately (two clocks of command-bus turnaround).
		m.openBank(b, ri, row.Row, start)
		m.closeBank(b, ri, done)
		b.readyAt = sim.Max(b.readyAt, start+2*m.tim.TCK)
		b.prechargeOKAt = sim.Max(b.prechargeOKAt, b.readyAt)
	}
	// With a surviving open page in another subarray the bank state is
	// untouched: demand row hits keep streaming during the refresh.
	b.srefUntil = done
	b.srefSub = row.Row / m.subRows
	res.Done = done

	m.stats.RefreshOps++
	m.stats.RefreshPerBankOps++
	m.stats.RefreshOverlapOps++
	if m.trace != nil {
		m.trace.Command(telemetry.CmdRefreshPB, bi, row.Row, start, done)
	}
	m.observe(done)
}

// refreshClose closes flat bank bi's open page ahead of a refresh of a
// row in that bank issued at issue — a conflict refresh. The precharge
// write-back restores the page's cells, which res reports as ClosedRow.
// It returns the first edge after the precharge completes (tRP after it
// issues).
func (m *Module) refreshClose(res *RefreshResult, bi int, in RowID, issue sim.Time) sim.Time {
	b := &m.banks[bi]
	res.ClosedOpenRow = true
	res.ClosedRow = RowID{Channel: in.Channel, Rank: in.Rank, Bank: in.Bank, Row: b.openRow}
	pre := sim.Max(issue, b.prechargeOKAt)
	if m.trace != nil {
		m.trace.Command(telemetry.CmdPrecharge, bi, b.openRow, pre, pre+m.tim.TRP)
	}
	m.closeBank(b, bi/m.nBanks, pre)
	m.stats.Precharges++
	m.stats.RefreshConflictOps++
	return pre + m.d.tRP
}

// refreshDur is the blocking refresh: the bank is fully occupied for dur,
// a delay from cycleDelays.
func (m *Module) refreshDur(t sim.Time, row RowID, kind RefreshKind, dur sim.Duration, res *RefreshResult) {
	if !m.validRow(row) {
		panic(fmt.Sprintf("dram: refresh of invalid row %+v", row))
	}
	m.observe(t)
	bi := m.bankIndex(row.Channel, row.Rank, row.Bank)
	ri := m.rankIndex(row.Channel, row.Rank)
	if m.ranks[ri].inSelfRefresh {
		panic(fmt.Sprintf("dram: refresh to rank ch%d/rk%d in self-refresh", row.Channel, row.Rank))
	}
	b := &m.banks[bi]

	issue := m.entry(t, b.readyAt)
	res.set(row, kind, issue)

	start := issue
	if b.openRow != -1 {
		start = m.refreshClose(res, bi, row, issue)
	}
	start = sim.Max(start, b.activateOKAt)
	start = sim.Max(start, m.ranks[ri].activateOKAt(&m.d))

	// The refresh itself: internal activate + restore + precharge (the
	// paper's 70 ns row refresh, or tRFCpb for a per-bank command). The
	// bank ends precharged. Count the rank as active for the duration.
	m.openBank(b, ri, row.Row, start)
	m.ranks[ri].recordActivate(start)
	done := start + dur
	m.closeBank(b, ri, done)
	b.readyAt = done
	b.activateOKAt = sim.Max(b.activateOKAt, start+m.d.tRC)
	b.prechargeOKAt = done
	res.Done = done

	m.stats.RefreshOps++
	switch kind {
	case RefreshCBR:
		m.stats.RefreshCBROps++
		if m.trace != nil {
			m.trace.Command(telemetry.CmdRefreshCBR, bi, row.Row, start, done)
		}
	case RefreshRASOnly:
		m.stats.RefreshRASOnlyOps++
		if m.trace != nil {
			m.trace.Command(telemetry.CmdRefreshRASOnly, bi, row.Row, start, done)
		}
	case RefreshPerBank:
		m.stats.RefreshPerBankOps++
		if m.trace != nil {
			m.trace.Command(telemetry.CmdRefreshPB, bi, row.Row, start, done)
		}
	}
	m.observe(done)
}

// OpenRow reports the row currently open in a bank, or -1 if precharged.
func (m *Module) OpenRow(bank BankID) int {
	return m.banks[m.bankIndex(bank.Channel, bank.Rank, bank.Bank)].openRow
}

// OpenRowFlat is OpenRow addressed by flat bank index — the controller's
// page-close bookkeeping already works in flat indices, and skipping the
// BankID round-trip matters on that hot path.
func (m *Module) OpenRowFlat(flat int) int {
	return m.banks[flat].openRow
}

// PrechargeBank closes the bank's open page at time t (no earlier than the
// bank's tRAS/write-recovery constraints allow) and returns the restored
// row. The second return is false if the bank was already precharged.
// Memory controllers use this to close idle pages so ranks can enter
// precharge power-down.
func (m *Module) PrechargeBank(t sim.Time, bank BankID) (RowID, bool) {
	ri := m.rankIndex(bank.Channel, bank.Rank)
	b := &m.banks[ri*m.nBanks+bank.Bank]
	if b.openRow == -1 {
		return RowID{}, false
	}
	pre := m.entry(t, b.prechargeOKAt)
	row := RowID{Channel: bank.Channel, Rank: bank.Rank, Bank: bank.Bank, Row: b.openRow}
	m.closeBank(b, ri, pre)
	m.stats.Precharges++
	done := pre + m.d.tRP
	b.readyAt = sim.Max(b.readyAt, done)
	b.prechargeOKAt = done
	m.observe(done)
	return row, true
}

// BankReadyAt reports the earliest time the bank accepts another command.
func (m *Module) BankReadyAt(bank BankID) sim.Time {
	return m.banks[m.bankIndex(bank.Channel, bank.Rank, bank.Bank)].readyAt
}

// InSelfRefresh reports whether the rank is in self-refresh mode.
func (m *Module) InSelfRefresh(channel, rank int) bool {
	return m.ranks[m.rankIndex(channel, rank)].inSelfRefresh
}

// EnterSelfRefresh puts a rank into self-refresh at time t: the module
// maintains retention from its internal oscillator and draws IDD6. All
// banks of the rank must be precharged, and the rank accepts no commands
// until ExitSelfRefresh. Entering twice is a controller bug and panics.
//
// Self-refresh entry cannot precede the rank's in-flight work: the SRE
// command queues behind the rank's last scheduled operation, so a t
// before that horizon (a controller deciding on a wall-clock idle
// deadline while queued refreshes are still completing) is clamped
// forward — otherwise the overlap would be double-counted as both
// active and self-refresh residency. The effective entry time is
// returned.
func (m *Module) EnterSelfRefresh(t sim.Time, channel, rank int) sim.Time {
	ri := m.rankIndex(channel, rank)
	r := &m.ranks[ri]
	if r.inSelfRefresh {
		panic(fmt.Sprintf("dram: rank ch%d/rk%d already in self-refresh", channel, rank))
	}
	if r.openBanks != 0 {
		panic(fmt.Sprintf("dram: self-refresh entry with %d open banks on ch%d/rk%d",
			r.openBanks, channel, rank))
	}
	t = m.settleRank(ri, t)
	if r.pdKind != PDNone {
		// Descending from an explicit power-down state straight into
		// self-refresh: fold the power-down residency up to the entry
		// point (the SRE transition itself is not charged a wake).
		m.foldPowerDown(r, t)
		r.pdKind = PDNone
	}
	r.inSelfRefresh = true
	r.srSince = t
	m.stats.SelfRefreshEntries++
	return t
}

// ExitSelfRefresh leaves self-refresh at time t and returns when the rank
// accepts its next command (t + TXSNR). Exiting a rank that is not in
// self-refresh panics.
func (m *Module) ExitSelfRefresh(t sim.Time, channel, rank int) sim.Time {
	ri := m.rankIndex(channel, rank)
	r := &m.ranks[ri]
	if !r.inSelfRefresh {
		panic(fmt.Sprintf("dram: rank ch%d/rk%d not in self-refresh", channel, rank))
	}
	if t < r.srSince {
		t = r.srSince
	}
	m.observe(t)
	m.updateRank(ri, t)
	r.selfRefreshTime += t - r.srSince
	r.inSelfRefresh = false
	exitLat := m.tim.TXSNR
	if r.srSlow {
		// Slow-wake residency [srSlowSince, t] drew IDD6L; the exit pays
		// the DLL relock instead of the plain TXSNR.
		r.srSlowTime += t - r.srSlowSince
		r.srSlow = false
		exitLat = m.tim.SelfRefreshSlowExit()
	}
	ready := m.clk.Next(t + exitLat)
	m.holdRank(ri, ready)
	return ready
}

// rankBanks returns the bank states of flat rank ri.
func (m *Module) rankBanks(ri int) []bankState {
	return m.banks[ri*m.nBanks : (ri+1)*m.nBanks]
}

// settleRank clamps a rank-wide mode entry requested at t behind flat
// rank ri's in-flight work (every bank's readyAt and the residency
// clock), brings the residency accounting up to that point and returns
// the effective entry time.
func (m *Module) settleRank(ri int, t sim.Time) sim.Time {
	banks := m.rankBanks(ri)
	for i := range banks {
		t = sim.Max(t, banks[i].readyAt)
	}
	t = sim.Max(t, m.ranks[ri].lastUpdate)
	m.observe(t)
	m.updateRank(ri, t)
	return t
}

// holdRank makes every bank of flat rank ri honour a wake-up exit
// latency: no command before ready.
func (m *Module) holdRank(ri int, ready sim.Time) {
	banks := m.rankBanks(ri)
	for i := range banks {
		bk := &banks[i]
		bk.readyAt = sim.Max(bk.readyAt, ready)
		bk.activateOKAt = sim.Max(bk.activateOKAt, ready)
		bk.prechargeOKAt = sim.Max(bk.prechargeOKAt, ready)
	}
	m.observe(ready)
}

// Finalize flushes background-state accounting up to time end and folds the
// per-rank residencies into the stats snapshot. Call once at the end of a
// simulation (calling again extends the accounting window).
func (m *Module) Finalize(end sim.Time) {
	m.observe(end)
	m.stats.ActiveTime = 0
	m.stats.IdleTime = 0
	m.stats.SelfRefreshTime = 0
	m.stats.ActPdnTime = 0
	m.stats.PrePdnFastTime = 0
	m.stats.PrePdnSlowTime = 0
	m.stats.SelfRefreshSlowTime = 0
	for i := range m.ranks {
		m.updateRank(i, m.now)
		if m.ranks[i].inSelfRefresh {
			// Extend the open self-refresh span; advance srSince so a
			// repeated Finalize does not double-count.
			m.ranks[i].selfRefreshTime += m.now - m.ranks[i].srSince
			m.ranks[i].srSince = m.now
			if m.ranks[i].srSlow {
				m.ranks[i].srSlowTime += m.now - m.ranks[i].srSlowSince
				m.ranks[i].srSlowSince = m.now
			}
		}
		if m.ranks[i].pdKind != PDNone {
			// Extend the open power-down span; foldPowerDown advances
			// pdSince, so a repeated Finalize extends, never
			// double-counts.
			m.foldPowerDown(&m.ranks[i], m.now)
		}
		m.stats.ActiveTime += m.ranks[i].activeTime
		m.stats.IdleTime += m.ranks[i].idleTime
		m.stats.SelfRefreshTime += m.ranks[i].selfRefreshTime
		m.stats.ActPdnTime += m.ranks[i].actPdnTime
		m.stats.PrePdnFastTime += m.ranks[i].preFastTime
		m.stats.PrePdnSlowTime += m.ranks[i].preSlowTime
		m.stats.SelfRefreshSlowTime += m.ranks[i].srSlowTime
	}
}

// Horizon reports the latest time the module has observed — the end of
// the residency accounting window Finalize folds. It can exceed the
// nominal simulation end when an in-flight operation ran past it, and is
// the exact wall the residency-conservation invariant checks against:
// after Finalize, ActiveTime + IdleTime == ranks × Horizon.
func (m *Module) Horizon() sim.Time { return m.now }
