package dram

import (
	"bytes"
	"fmt"
	"testing"

	"smartrefresh/internal/sim"
	"smartrefresh/internal/telemetry"
)

// refModule is the reference model of the module's command timing: the
// Next-rounded formulas the module used before it kept every stored
// command time on a clock edge. It owns a Module for the state and the
// rounding-agnostic helpers (bank/rank open-close accounting, settleRank,
// holdRank, power-state folds, Finalize, Stats), and re-implements every
// method whose timing chain changed. Its stored times are the unrounded
// ones, rounded with clk.Next at every use.
type refModule struct{ *Module }

func newRefModule(g Geometry, t Timing) refModule {
	m := NewModule(g, t)
	const farPast = sim.Time(-1) << 40
	for i := range m.ranks {
		m.ranks[i].lastActivate = farPast
		for j := range m.ranks[i].actWindow {
			m.ranks[i].actWindow[j] = farPast
		}
	}
	return refModule{m}
}

func (r refModule) rankActivateOK(ri int) sim.Time {
	rk := &r.ranks[ri]
	earliest := rk.lastActivate + r.tim.TRRD
	if faw := rk.actWindow[rk.actWindowPos] + r.tim.TFAW; faw > earliest {
		earliest = faw
	}
	return earliest
}

func (r refModule) Access(t sim.Time, addr Address, write bool, res *AccessResult) {
	m := r.Module
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
		ready = b.srefUntil
	}
	issue := m.clk.Next(sim.Max(t, ready))
	if issue > t {
		m.stats.DemandStall += issue - t
	}
	res.Issue, res.RowHit, res.Conflict = issue, false, false
	res.ClosedRow, res.ClosedRowSet = RowID{}, false
	res.OpenedRow, res.OpenedRowSet = RowID{}, false
	res.ActivateAt = 0

	cas := issue
	if b.openRow == addr.Row {
		res.RowHit = true
		m.stats.RowHits++
	} else {
		act := issue
		if b.openRow == -1 {
			m.stats.RowMisses++
		} else {
			m.stats.RowConflicts++
			res.Conflict = true
			pre := m.clk.Next(sim.Max(issue, b.prechargeOKAt))
			res.ClosedRow = RowID{Channel: addr.Channel, Rank: addr.Rank, Bank: addr.Bank, Row: b.openRow}
			res.ClosedRowSet = true
			if m.trace != nil {
				m.trace.Command(telemetry.CmdPrecharge, bi, b.openRow, pre, pre+m.tim.TRP)
			}
			m.closeBank(b, ri, pre)
			m.stats.Precharges++
			act = pre + m.tim.TRP
		}
		act = sim.Max(act, b.activateOKAt)
		act = sim.Max(act, r.rankActivateOK(ri))
		act = m.clk.Next(act)
		m.openBank(b, ri, addr.Row, act)
		m.ranks[ri].recordActivate(act)
		m.stats.Activates++
		b.activateOKAt = act + m.tim.TRC
		b.prechargeOKAt = act + m.tim.TRAS
		cas = m.clk.Next(act + m.tim.TRCD)
		res.OpenedRow, res.OpenedRowSet = addr.RowID, true
		res.ActivateAt = act
		if m.trace != nil {
			m.trace.Command(telemetry.CmdActivate, bi, addr.Row, act, cas)
		}
	}

	dataStart := m.clk.Next(sim.Max(cas+m.tim.TCL, ch.busFreeAt))
	dataDone := dataStart + m.burst
	ch.busFreeAt = dataDone
	res.DataStart = dataStart
	res.Done = dataDone

	b.readyAt = m.clk.Next(sim.Max(cas+m.tim.TCCD, dataStart))
	if write {
		m.stats.Writes++
		b.prechargeOKAt = sim.Max(b.prechargeOKAt, dataDone+m.tim.TWR)
		if m.trace != nil {
			m.trace.Command(telemetry.CmdWrite, bi, addr.Row, dataStart, dataDone)
		}
	} else {
		m.stats.Reads++
		b.prechargeOKAt = sim.Max(b.prechargeOKAt, cas+m.tim.TRTP)
		if m.trace != nil {
			m.trace.Command(telemetry.CmdRead, bi, addr.Row, dataStart, dataDone)
		}
	}
	m.stats.Accesses++
	m.observe(dataDone)
}

func (r refModule) RefreshRow(t sim.Time, row RowID, res *RefreshResult) {
	r.refreshDur(t, row, RefreshRASOnly, r.tim.TRefreshRow, res)
}

func (r refModule) RefreshNextCBR(t sim.Time, bank BankID, res *RefreshResult) {
	r.refreshDur(t, r.nextCounterRow(bank), RefreshCBR, r.tim.TRefreshRow, res)
}

func (r refModule) RefreshBank(t sim.Time, bank BankID, res *RefreshResult) {
	r.refreshDur(t, r.nextCounterRow(bank), RefreshPerBank, r.tim.PerBankRefreshDuration(), res)
}

func (r refModule) RefreshBankOverlapped(t sim.Time, bank BankID, res *RefreshResult) {
	m := r.Module
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
	dur := m.tim.PerBankRefreshDuration()

	issue := m.clk.Next(sim.Max(t, b.readyAt))
	res.set(row, RefreshPerBank, issue)
	start := issue

	if b.openRow != -1 && b.openRow/m.subRows == row.Row/m.subRows {
		start = m.clk.Next(r.refreshClose(res, bi, row, issue))
	}
	start = m.clk.Next(sim.Max(start, r.rankActivateOK(ri)))
	m.ranks[ri].recordActivate(start)
	done := m.clk.Next(start + dur)

	if b.openRow == -1 {
		m.openBank(b, ri, row.Row, start)
		m.closeBank(b, ri, done)
		b.readyAt = sim.Max(b.readyAt, m.clk.Next(start+2*m.tim.TCK))
		b.prechargeOKAt = sim.Max(b.prechargeOKAt, b.readyAt)
	}
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

func (r refModule) refreshClose(res *RefreshResult, bi int, in RowID, issue sim.Time) sim.Time {
	m := r.Module
	b := &m.banks[bi]
	res.ClosedOpenRow = true
	res.ClosedRow = RowID{Channel: in.Channel, Rank: in.Rank, Bank: in.Bank, Row: b.openRow}
	pre := m.clk.Next(sim.Max(issue, b.prechargeOKAt))
	if m.trace != nil {
		m.trace.Command(telemetry.CmdPrecharge, bi, b.openRow, pre, pre+m.tim.TRP)
	}
	m.closeBank(b, bi/m.nBanks, pre)
	m.stats.Precharges++
	m.stats.RefreshConflictOps++
	return pre + m.tim.TRP
}

func (r refModule) refreshDur(t sim.Time, row RowID, kind RefreshKind, dur sim.Duration, res *RefreshResult) {
	m := r.Module
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

	issue := m.clk.Next(sim.Max(t, b.readyAt))
	res.set(row, kind, issue)

	start := issue
	if b.openRow != -1 {
		start = m.clk.Next(r.refreshClose(res, bi, row, issue))
	}
	start = sim.Max(start, b.activateOKAt)
	start = m.clk.Next(sim.Max(start, r.rankActivateOK(ri)))

	m.openBank(b, ri, row.Row, start)
	m.ranks[ri].recordActivate(start)
	done := m.clk.Next(start + dur)
	m.closeBank(b, ri, done)
	b.readyAt = done
	b.activateOKAt = sim.Max(b.activateOKAt, start+m.tim.TRC)
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

func (r refModule) PrechargeBank(t sim.Time, bank BankID) (RowID, bool) {
	m := r.Module
	ri := m.rankIndex(bank.Channel, bank.Rank)
	b := &m.banks[ri*m.nBanks+bank.Bank]
	if b.openRow == -1 {
		return RowID{}, false
	}
	pre := m.clk.Next(sim.Max(t, b.prechargeOKAt))
	row := RowID{Channel: bank.Channel, Rank: bank.Rank, Bank: bank.Bank, Row: b.openRow}
	m.closeBank(b, ri, pre)
	m.stats.Precharges++
	done := m.clk.Next(pre + m.tim.TRP)
	b.readyAt = sim.Max(b.readyAt, done)
	b.prechargeOKAt = done
	m.observe(done)
	return row, true
}

func (r refModule) ExitSelfRefresh(t sim.Time, channel, rank int) sim.Time {
	m := r.Module
	ri := m.rankIndex(channel, rank)
	rk := &m.ranks[ri]
	if !rk.inSelfRefresh {
		panic(fmt.Sprintf("dram: rank ch%d/rk%d not in self-refresh", channel, rank))
	}
	if t < rk.srSince {
		t = rk.srSince
	}
	m.observe(t)
	m.updateRank(ri, t)
	rk.selfRefreshTime += t - rk.srSince
	rk.inSelfRefresh = false
	exitLat := m.tim.TXSNR
	if rk.srSlow {
		rk.srSlowTime += t - rk.srSlowSince
		rk.srSlow = false
		exitLat = m.tim.SelfRefreshSlowExit()
	}
	ready := m.clk.Next(t + exitLat)
	m.holdRank(ri, ready)
	return ready
}

func (r refModule) ExitPowerDown(t sim.Time, channel, rank int) sim.Time {
	m := r.Module
	ri := m.rankIndex(channel, rank)
	rk := &m.ranks[ri]
	if rk.pdKind == PDNone {
		panic(fmt.Sprintf("dram: rank ch%d/rk%d not in power-down", channel, rank))
	}
	if t < rk.pdSince {
		t = rk.pdSince
	}
	m.observe(t)
	m.updateRank(ri, t)
	exit := m.tim.PowerDownExitFast()
	if rk.pdKind == PDPrechargeSlow {
		exit = m.tim.PowerDownExitSlow()
	}
	m.foldPowerDown(rk, t)
	rk.pdKind = PDNone
	ready := m.clk.Next(t + exit)
	m.holdRank(ri, ready)
	return ready
}

// commander is the command surface the differential driver exercises;
// the module and the reference both provide it.
type commander interface {
	Access(t sim.Time, addr Address, write bool, res *AccessResult)
	RefreshRow(t sim.Time, row RowID, res *RefreshResult)
	RefreshNextCBR(t sim.Time, bank BankID, res *RefreshResult)
	RefreshBank(t sim.Time, bank BankID, res *RefreshResult)
	RefreshBankOverlapped(t sim.Time, bank BankID, res *RefreshResult)
	PrechargeBank(t sim.Time, bank BankID) (RowID, bool)
	EnterSelfRefresh(t sim.Time, channel, rank int) sim.Time
	ExitSelfRefresh(t sim.Time, channel, rank int) sim.Time
	SlowSelfRefresh(t sim.Time, channel, rank int)
	EnterPowerDown(t sim.Time, channel, rank int, kind PowerDownKind) sim.Time
	ExitPowerDown(t sim.Time, channel, rank int) sim.Time
	InSelfRefresh(channel, rank int) bool
	PowerDownState(channel, rank int) PowerDownKind
	OpenRow(bank BankID) int
	BankReadyAt(bank BankID) sim.Time
	Finalize(end sim.Time)
	Stats() ModuleStats
	Horizon() sim.Time
	SetTraceScope(s *telemetry.Scope)
}

// state returns the Module holding m's state.
func state(m commander) *Module {
	if r, ok := m.(refModule); ok {
		return r.Module
	}
	return m.(*Module)
}

// offEdge returns a random duration in [lo, hi] that is not a multiple
// of tck, so the rounding of every delay matters.
func offEdge(rng *sim.RNG, tck, lo, hi sim.Duration) sim.Duration {
	for {
		d := lo + sim.Duration(rng.Int63n(int64(hi-lo+1)))
		if d%tck != 0 {
			return d
		}
	}
}

// randomTiming draws a valid Timing whose parameters are not multiples
// of its (odd) clock period.
func randomTiming(rng *sim.RNG) Timing {
	tck := sim.Duration(2*rng.Intn(1500) + 501) // odd ps in [501, 3499]
	d := func(lo, hi int64) sim.Duration {
		return offEdge(rng, tck, sim.Duration(lo)*tck/2, sim.Duration(hi)*tck)
	}
	t := Timing{
		TCK:  tck,
		TRCD: d(1, 8), TRP: d(1, 8), TCL: d(1, 8), TRAS: d(2, 20),
		TWR: d(1, 8), TRTP: d(1, 6), TCCD: d(1, 4), TRRD: d(1, 5),
		TRefreshRow: d(4, 40),
		TXSNR:       d(4, 40),
	}
	t.TRC = t.TRAS + t.TRP + offEdge(rng, tck, 1, 4*tck)
	t.TFAW = t.TRRD + offEdge(rng, tck, 1, 12*tck)
	if rng.Bool(0.5) {
		t.TRFCpb = t.TRefreshRow + offEdge(rng, tck, 1, 20*tck)
	}
	if rng.Bool(0.5) {
		t.TXP = d(1, 4)
		t.TXPDLL = t.TXP + offEdge(rng, tck, 1, 10*tck)
	}
	if rng.Bool(0.5) {
		t.TXSRD = t.TXSNR + offEdge(rng, tck, 1, 40*tck)
	}
	t.RefreshInterval = 200 * t.TRC
	return t
}

// randomGeometry draws a small valid geometry with an odd burst length
// half of the time (a burst that is not a whole number of clocks).
func randomGeometry(rng *sim.RNG) Geometry {
	bl := 4
	if rng.Bool(0.5) {
		bl = 2*rng.Intn(4) + 1
	}
	return Geometry{
		Channels: 1 << rng.Intn(2), Ranks: 1 << rng.Intn(2), Banks: 1 << (1 + rng.Intn(2)),
		Rows: 1 << (3 + rng.Intn(4)), Columns: 64,
		DataWidthBits: 64, BurstLength: bl, DevicesPerRank: 8,
	}
}

// driveDifferential runs the same random command mix through the module
// and the reference model and reports the first field that differs.
func driveDifferential(seed uint64, ops int) error {
	rng := sim.NewRNG(seed)
	g, tm := randomGeometry(rng), randomTiming(rng)
	mod := NewModule(g, tm)
	ref := newRefModule(g, tm)
	trM, trR := telemetry.NewTracer(), telemetry.NewTracer()
	traced := rng.Bool(0.5)
	if traced {
		mod.SetTraceScope(trM.Scope("dram"))
		ref.SetTraceScope(trR.Scope("dram"))
	}
	both := [2]commander{mod, ref}

	var now sim.Time
	for op := 0; op < ops; op++ {
		// Small gaps keep banks busy past the next command (no rounding
		// on entry); large ones leave them idle (rounding on entry).
		if rng.Bool(0.7) {
			now += sim.Duration(rng.Int63n(int64(4 * tm.TCK)))
		} else {
			now += sim.Duration(rng.Int63n(int64(60 * tm.TCK)))
		}
		ch, rk := rng.Intn(g.Channels), rng.Intn(g.Ranks)
		bank := BankID{Channel: ch, Rank: rk, Bank: rng.Intn(g.Banks)}
		kind := rng.Intn(12)
		sub := sim.NewRNG(rng.Uint64())
		var got [2]string
		for i, m := range both {
			draws := *sub // both models draw the same values
			got[i] = step(m, g, &draws, now, bank, kind)
		}
		if got[0] != got[1] {
			return fmt.Errorf("seed %d op %d (kind %d) at %v:\n module    %s\n reference %s\n timing %+v geometry %+v",
				seed, op, kind, now, got[0], got[1], tm, g)
		}
	}
	end := now + 100*tm.TCK
	var sum [2]string
	for i, m := range both {
		m.Finalize(end)
		var b bytes.Buffer
		fmt.Fprintf(&b, "%+v horizon %d ready", m.Stats(), m.Horizon())
		for c := 0; c < g.Channels; c++ {
			for r := 0; r < g.Ranks; r++ {
				for k := 0; k < g.Banks; k++ {
					fmt.Fprintf(&b, " %d", m.BankReadyAt(BankID{Channel: c, Rank: r, Bank: k}))
				}
			}
		}
		sum[i] = b.String()
	}
	if sum[0] != sum[1] {
		return fmt.Errorf("seed %d after Finalize:\n module    %s\n reference %s", seed, sum[0], sum[1])
	}
	if traced {
		var a, b bytes.Buffer
		if err := trM.Write(&a); err != nil {
			return err
		}
		if err := trR.Write(&b); err != nil {
			return err
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			return fmt.Errorf("seed %d: command traces differ", seed)
		}
	}
	return nil
}

// step applies one command of the given kind to m at time now, waking
// the rank first when the command needs it awake, and renders every
// output.
func step(m commander, g Geometry, rng *sim.RNG, now sim.Time, bank BankID, kind int) string {
	ch, rk := bank.Channel, bank.Rank
	var out bytes.Buffer
	wake := func() {
		if m.InSelfRefresh(ch, rk) {
			fmt.Fprintf(&out, "srx %d; ", m.ExitSelfRefresh(now, ch, rk))
		}
		if m.PowerDownState(ch, rk) != PDNone {
			fmt.Fprintf(&out, "pdx %d; ", m.ExitPowerDown(now, ch, rk))
		}
	}
	closeRank := func() {
		for b := 0; b < g.Banks; b++ {
			row, ok := m.PrechargeBank(now, BankID{Channel: ch, Rank: rk, Bank: b})
			fmt.Fprintf(&out, "pre %v %v; ", row, ok)
		}
	}
	var rr RefreshResult
	switch kind {
	case 0, 1, 2, 3, 4:
		wake()
		// Favour a few rows so hits, misses and conflicts all occur.
		row := rng.Intn(4) * (g.Rows / 4)
		if rng.Bool(0.3) {
			row = rng.Intn(g.Rows)
		}
		addr := Address{RowID: RowID{Channel: ch, Rank: rk, Bank: bank.Bank, Row: row}, Column: rng.Intn(g.Columns)}
		var ar AccessResult
		m.Access(now, addr, rng.Bool(0.4), &ar)
		fmt.Fprintf(&out, "access %+v", ar)
	case 5:
		wake()
		m.RefreshRow(now, RowID{Channel: ch, Rank: rk, Bank: bank.Bank, Row: rng.Intn(g.Rows)}, &rr)
		fmt.Fprintf(&out, "ras %+v", rr)
	case 6:
		wake()
		m.RefreshNextCBR(now, bank, &rr)
		fmt.Fprintf(&out, "cbr %+v", rr)
	case 7:
		wake()
		m.RefreshBank(now, bank, &rr)
		fmt.Fprintf(&out, "refpb %+v", rr)
	case 8:
		wake()
		m.RefreshBankOverlapped(now, bank, &rr)
		fmt.Fprintf(&out, "sarp %+v", rr)
	case 9:
		if m.InSelfRefresh(ch, rk) {
			break
		}
		row, ok := m.PrechargeBank(now, bank)
		fmt.Fprintf(&out, "pre %v %v", row, ok)
	case 10:
		// Power down: active, or precharge fast/slow after closing the
		// rank; deepen or wake when already down.
		switch {
		case m.InSelfRefresh(ch, rk):
			fmt.Fprintf(&out, "srx %d", m.ExitSelfRefresh(now, ch, rk))
		case m.PowerDownState(ch, rk) == PDPrechargeFast && rng.Bool(0.5):
			fmt.Fprintf(&out, "pde-slow %d", m.EnterPowerDown(now, ch, rk, PDPrechargeSlow))
		case m.PowerDownState(ch, rk) != PDNone:
			fmt.Fprintf(&out, "pdx %d", m.ExitPowerDown(now, ch, rk))
		case rng.Bool(0.3):
			fmt.Fprintf(&out, "pde-act %d", m.EnterPowerDown(now, ch, rk, PDActive))
		default:
			closeRank()
			k := PDPrechargeFast
			if rng.Bool(0.5) {
				k = PDPrechargeSlow
			}
			fmt.Fprintf(&out, "pde %v %d", k, m.EnterPowerDown(now, ch, rk, k))
		}
	case 11:
		// Self-refresh: enter (closing the rank, possibly from a
		// precharge power-down), deepen to slow wake, or exit.
		switch {
		case m.InSelfRefresh(ch, rk) && rng.Bool(0.4):
			fmt.Fprintf(&out, "srx %d", m.ExitSelfRefresh(now, ch, rk))
		case m.InSelfRefresh(ch, rk) && !state(m).ranks[state(m).rankIndex(ch, rk)].srSlow:
			m.SlowSelfRefresh(now, ch, rk)
			out.WriteString("sr-slow")
		case m.InSelfRefresh(ch, rk):
			fmt.Fprintf(&out, "srx-slow %d", m.ExitSelfRefresh(now, ch, rk))
		default:
			if m.PowerDownState(ch, rk) == PDActive {
				fmt.Fprintf(&out, "pdx %d; ", m.ExitPowerDown(now, ch, rk))
			}
			if m.PowerDownState(ch, rk) == PDNone {
				closeRank()
			}
			fmt.Fprintf(&out, "sre %d", m.EnterSelfRefresh(now, ch, rk))
		}
	}
	return out.String()
}

// TestModuleMatchesNextReference checks that the edge-domain timing chain
// is exact: over random timings whose parameters are not multiples of
// tCK (odd burst lengths included) and random mixes of access, RAS-only,
// CBR, per-bank and overlapped refresh, precharge, power-down and
// self-refresh, every result, every bank's ready time, the command trace
// and the final stats equal the Next-rounded reference's.
func TestModuleMatchesNextReference(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		if err := driveDifferential(seed, 400); err != nil {
			t.Fatal(err)
		}
	}
}

func FuzzModuleMatchesReference(f *testing.F) {
	for _, s := range []uint64{1, 7, 42, 1 << 40} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		if err := driveDifferential(seed, 300); err != nil {
			t.Fatal(err)
		}
	})
}
