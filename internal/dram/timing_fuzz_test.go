package dram

import (
	"math"
	"testing"

	"smartrefresh/internal/sim"
)

// checkCycleDelays reports the first delay of m's table that is not a
// positive raw delay rounded up to a whole clock: d > 0, d' % tCK == 0 and
// d <= d' < d+tCK.
func checkCycleDelays(t *testing.T, m *Module) {
	t.Helper()
	tm, tck := m.Timing(), m.Timing().TCK
	burst := tm.BurstDuration(m.Geometry().BurstLength)
	for _, c := range []struct {
		name     string
		raw, got sim.Duration
	}{
		{"tRCD", tm.TRCD, m.d.tRCD}, {"tRP", tm.TRP, m.d.tRP}, {"tCL", tm.TCL, m.d.tCL},
		{"tRAS", tm.TRAS, m.d.tRAS}, {"tRC", tm.TRC, m.d.tRC}, {"tRTP", tm.TRTP, m.d.tRTP},
		{"tCCD", tm.TCCD, m.d.tCCD}, {"tRRD", tm.TRRD, m.d.tRRD}, {"tFAW", tm.TFAW, m.d.tFAW},
		{"burst", burst, m.d.burst}, {"burst+tWR", burst + tm.TWR, m.d.burstWR},
		{"tRefreshRow", tm.TRefreshRow, m.d.refRow}, {"tRFCpb", tm.PerBankRefreshDuration(), m.d.refPB},
	} {
		if c.raw <= 0 || c.got%tck != 0 || c.got < c.raw || c.got >= c.raw+tck {
			t.Fatalf("%s: raw %d ps rounds to %d ps at tCK %d ps", c.name, c.raw, c.got, tck)
		}
	}
}

// FuzzTimingGeometry checks that every Timing/Geometry pair passing both
// Validates builds a Module without a panic, and that every delay the
// module rounds once at construction is its raw value rounded up to a
// whole clock.
func FuzzTimingGeometry(f *testing.F) {
	d := DDR2_667(64 * sim.Millisecond)
	f.Add(int64(d.TCK), int64(d.TRCD), int64(d.TRP), int64(d.TCL), int64(d.TRAS), int64(d.TRC),
		int64(d.TWR), int64(d.TRTP), int64(d.TCCD), int64(d.TRRD), int64(d.TFAW),
		int64(d.TRefreshRow), int64(d.TRFCpb), int64(d.TXSNR), int64(d.RefreshInterval),
		uint8(0), uint8(1), uint8(3), uint8(14), 4)
	f.Add(int64(1001), int64(1), int64(2), int64(3), int64(4), int64(7),
		int64(5), int64(6), int64(7), int64(8), int64(9),
		int64(10), int64(0), int64(11), int64(1<<20),
		uint8(1), uint8(0), uint8(2), uint8(3), 7)
	f.Add(int64(sim.Second), int64(sim.Second), int64(1), int64(sim.Second), int64(1), int64(sim.Second),
		int64(sim.Second), int64(sim.Second), int64(sim.Second), int64(1), int64(sim.Second),
		int64(sim.Second), int64(sim.Second), int64(sim.Second), int64(math.MaxInt64),
		uint8(0), uint8(0), uint8(0), uint8(0), 1<<10)
	// Past the validation bounds: delays whose rounding would overflow
	// int64, and a burst length whose duration wraps to zero. Validate
	// must reject both.
	const huge = math.MaxInt64 - 1
	f.Add(int64(d.TCK), int64(huge), int64(d.TRP), int64(huge), int64(d.TRAS), int64(d.TRC),
		int64(huge), int64(huge), int64(huge), int64(d.TRRD), int64(d.TFAW),
		int64(d.TRefreshRow), int64(0), int64(huge), int64(d.RefreshInterval),
		uint8(0), uint8(0), uint8(3), uint8(14), 4)
	f.Add(int64(d.TCK), int64(d.TRCD), int64(d.TRP), int64(d.TCL), int64(d.TRAS), int64(d.TRC),
		int64(d.TWR), int64(d.TRTP), int64(d.TCCD), int64(d.TRRD), int64(d.TFAW),
		int64(d.TRefreshRow), int64(d.TRFCpb), int64(d.TXSNR), int64(d.RefreshInterval),
		uint8(0), uint8(0), uint8(3), uint8(14), 1<<62)
	f.Fuzz(func(t *testing.T, tck, trcd, trp, tcl, tras, trc, twr, trtp, tccd, trrd, tfaw,
		trow, trfcpb, txsnr, interval int64, chBits, rkBits, bkBits, rowBits uint8, bl int) {
		tm := Timing{
			TCK: sim.Duration(tck), TRCD: sim.Duration(trcd), TRP: sim.Duration(trp),
			TCL: sim.Duration(tcl), TRAS: sim.Duration(tras), TRC: sim.Duration(trc),
			TWR: sim.Duration(twr), TRTP: sim.Duration(trtp), TCCD: sim.Duration(tccd),
			TRRD: sim.Duration(trrd), TFAW: sim.Duration(tfaw),
			TRefreshRow: sim.Duration(trow), TRFCpb: sim.Duration(trfcpb),
			TXSNR: sim.Duration(txsnr), RefreshInterval: sim.Duration(interval),
		}
		// The module allocates per bank and per rank; keep the bank
		// count small so a fuzzed geometry cannot exhaust memory.
		chBits, rkBits, bkBits, rowBits = chBits%4, rkBits%4, bkBits%5, rowBits%40
		g := Geometry{
			Channels: 1 << chBits, Ranks: 1 << rkBits, Banks: 1 << bkBits, Rows: 1 << rowBits,
			Columns: 1024, DataWidthBits: 64, BurstLength: bl, DevicesPerRank: 8,
		}
		if tm.Validate() != nil || g.Validate() != nil {
			return
		}
		checkCycleDelays(t, NewModule(g, tm))
	})
}

func TestTimingValidateBounds(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Timing)
	}{
		{"TCK", func(tm *Timing) { tm.TCK = maxCommandDelay + 1 }},
		{"TRAS", func(tm *Timing) { tm.TRAS = math.MaxInt64 - 1 }},
		{"TWR", func(tm *Timing) { tm.TWR = maxCommandDelay + 1 }},
		{"TXSRD", func(tm *Timing) { tm.TXSRD = math.MaxInt64 }},
	} {
		tm := DDR2_667(64 * sim.Millisecond)
		tc.mutate(&tm)
		if err := tm.Validate(); err == nil {
			t.Errorf("%s above the bound accepted", tc.name)
		}
	}
	g := Geometry{Channels: 1, Ranks: 1, Banks: 1, Rows: 1, Columns: 1,
		DataWidthBits: 64, BurstLength: maxBurstLength + 1, DevicesPerRank: 1}
	if err := g.Validate(); err == nil {
		t.Error("burst length above the bound accepted")
	}
	g.BurstLength = maxBurstLength
	if err := g.Validate(); err != nil {
		t.Errorf("burst length at the bound rejected: %v", err)
	}
}

// TestCycleDelaysRounded runs the fuzz property on the shipped preset and
// on an odd clock with an odd burst length.
func TestCycleDelaysRounded(t *testing.T) {
	g := Geometry{Channels: 1, Ranks: 2, Banks: 4, Rows: 64, Columns: 64,
		DataWidthBits: 64, BurstLength: 4, DevicesPerRank: 8}
	checkCycleDelays(t, NewModule(g, DDR2_667(64*sim.Millisecond)))
	rng := sim.NewRNG(3)
	g.BurstLength = 5
	checkCycleDelays(t, NewModule(g, randomTiming(rng)))
}
