package memctrl

import (
	"bytes"
	"encoding/json"
	"testing"

	"smartrefresh/internal/core"
	"smartrefresh/internal/dram"
	"smartrefresh/internal/sim"
	"smartrefresh/internal/telemetry"
)

// Regression: closeIdleBank used to re-arm lastUse even when the
// module reported the bank was already closed, inventing a future
// page-close deadline for a precharged bank.
func TestCloseIdleBankNoRearmWhenNotClosed(t *testing.T) {
	cfg := tinyConfig(64 * sim.Millisecond)
	ctl := MustNew(cfg, core.NewCBR(cfg.Geometry, cfg.RefreshInterval()), Options{})

	deadline := sim.Time(5 * sim.Microsecond)
	// Bank 0 has no open page: the close must be a no-op, including the
	// last-use re-arm.
	ctl.closeIdleBank(deadline, 0)
	if got := ctl.banks[0].lastUse; got != 0 {
		t.Errorf("lastUse re-armed to %v on a not-closed bank, want 0", got)
	}

	// With an open page the close precharges the bank and re-arms.
	bank := dram.BankID{Channel: 0, Rank: 0, Bank: 0}
	var res dram.AccessResult
	ctl.module.Access(0, dram.Address{RowID: dram.RowID{Row: 3}, Column: 0}, false, &res)
	if ctl.module.OpenRow(bank) != 3 {
		t.Fatal("setup: page not open")
	}
	ctl.closeIdleBank(deadline, 0)
	if ctl.module.OpenRow(bank) != -1 {
		t.Error("closeIdleBank left the page open")
	}
	if got := ctl.banks[0].lastUse; got != deadline {
		t.Errorf("lastUse = %v after closing, want %v", got, deadline)
	}
}

// Two banks sharing a page-close deadline must resolve the tie the same
// way every evaluation: the lowest flat bank index wins.
func TestNextIdleCloseTieBreakDeterministic(t *testing.T) {
	cfg := tinyConfig(64 * sim.Millisecond)
	ctl := MustNew(cfg, core.NewCBR(cfg.Geometry, cfg.RefreshInterval()), Options{})
	g := cfg.Geometry

	// Open pages in flat banks 2 and 1 (opened in that order) and give
	// them identical last-use times, so their deadlines tie exactly.
	var res dram.AccessResult
	for _, flat := range []int{2, 1} {
		rem := flat % (g.Ranks * g.Banks)
		addr := dram.Address{RowID: dram.RowID{
			Channel: flat / (g.Ranks * g.Banks),
			Rank:    rem / g.Banks,
			Bank:    rem % g.Banks,
			Row:     7,
		}}
		ctl.module.Access(0, addr, false, &res)
		ctl.banks[flat].lastUse = 1000
		ctl.armIdleClose(flat) // every lastUse write arms its deadline
	}

	wantAt := sim.Time(1000) + ctl.idleClose
	for i := 0; i < 10; i++ {
		at, flat, ok := ctl.nextIdleClose()
		if !ok || at != wantAt || flat != 1 {
			t.Fatalf("iteration %d: nextIdleClose = (%v, %d, %v), want (%v, 1, true)",
				i, at, flat, ok, wantAt)
		}
	}
}

// linearNextIdleClose is the O(banks) scan the deadline heap replaced,
// kept verbatim as the property-test reference: earliest deadline over all
// open banks, ties to the lowest flat index.
func linearNextIdleClose(c *Controller) (sim.Time, int, bool) {
	if c.idleClose < 0 {
		return 0, 0, false
	}
	best := -1
	var at sim.Time
	g := c.cfg.Geometry
	for flat := range c.banks {
		rem := flat % (g.Ranks * g.Banks)
		bank := dram.BankID{
			Channel: flat / (g.Ranks * g.Banks),
			Rank:    rem / g.Banks,
			Bank:    rem % g.Banks,
		}
		if c.module.OpenRow(bank) == -1 {
			continue
		}
		deadline := c.banks[flat].lastUse + c.idleClose
		if best == -1 || deadline < at {
			best, at = flat, deadline
		}
	}
	if best == -1 {
		return 0, 0, false
	}
	return at, best, true
}

// TestNextIdleCloseHeapMatchesLinearScan cross-checks the lazy deadline
// heap against the old linear scan on seeded random traffic: after every
// submitted request (each of which runs the internal drain loop, closing
// pages in deadline order) both implementations must agree on the next
// close — same deadline, same bank, same tie-break.
func TestNextIdleCloseHeapMatchesLinearScan(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		cfg := tinyConfig(64 * sim.Millisecond)
		ctl := MustNew(cfg, core.NewCBR(cfg.Geometry, cfg.RefreshInterval()), Options{})
		rng := sim.NewRNG(seed)
		now := sim.Time(0)
		for i := 0; i < 3000; i++ {
			ctl.Submit(Request{
				Time:  now,
				Addr:  rng.Uint64() % uint64(ctl.Mapper().Capacity()),
				Write: rng.Bool(0.3),
			})
			// Mix of gaps around the page-close timeout so pages sometimes
			// survive to the next access and sometimes idle-close first.
			now += sim.Time(rng.Intn(int(3 * ctl.idleClose)))

			hAt, hFlat, hOk := ctl.nextIdleClose()
			lAt, lFlat, lOk := linearNextIdleClose(ctl)
			if hAt != lAt || hFlat != lFlat || hOk != lOk {
				t.Fatalf("seed %d step %d: heap (%v,%d,%v) != scan (%v,%d,%v)",
					seed, i, hAt, hFlat, hOk, lAt, lFlat, lOk)
			}
		}
	}
}

// closeEvent is one idle page-close: the trace timestamp of its deadline
// (simulated microseconds, as the tracer records it) and the flat bank.
type closeEvent struct {
	ts   float64
	flat int
}

// drainByScan is the controller's event drain for a controller without
// power states (refresh ticks win ties over idle closes), with the
// page-close source replaced by linearNextIdleClose, the brute-force
// min-scan over open banks. It appends the closes it performs.
func drainByScan(c *Controller, t sim.Time, closes []closeEvent) []closeEvent {
	for {
		rt, rok := c.policy.NextTick()
		ct, flat, cok := linearNextIdleClose(c)
		switch {
		case rok && rt <= t && (!cok || rt <= ct):
			c.runRefreshTick(rt)
		case cok && ct <= t:
			c.closeIdleBank(ct, flat)
			closes = append(closes, closeEvent{float64(ct) / 1e6, flat})
		default:
			return closes
		}
	}
}

// tracedCloses extracts the idle page-closes, in issue order, from a
// tracer that recorded one controller.
func tracedCloses(t *testing.T, tr *telemetry.Tracer) []closeEvent {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var out []closeEvent
	for _, e := range doc.TraceEvents {
		if e.Name == telemetry.CmdIdleClose.String() {
			out = append(out, closeEvent{e.Ts, e.Tid})
		}
	}
	return out
}

// TestIdleCloseOrderMatchesMinScan runs random submit streams through two
// identical controllers. The first drains through its own one-entry-per-
// bank heap, and its page-closes are read back from the trace. The second
// drains through a brute-force min-scan over open banks before every
// request. The two page-close sequences (deadline, flat bank) must be
// equal. The streams mix gaps around the page-close timeout, short
// refresh intervals whose refreshes close open pages (so banks are
// closed under a queued entry and re-opened by later demand), and twin
// requests at one instant to the same bank of both channels, whose
// deadlines tie on different flat banks.
func TestIdleCloseOrderMatchesMinScan(t *testing.T) {
	var closes, ties int
	var refreshCloses uint64
	for seed := uint64(1); seed <= 8; seed++ {
		cfg := tinyConfig(sim.Millisecond)
		cfg.Geometry.Channels = 2
		cfg.Power.Geometry = cfg.Geometry
		newPolicy := func() core.Policy { return core.NewCBR(cfg.Geometry, cfg.RefreshInterval()) }
		if seed%2 == 0 {
			newPolicy = func() core.Policy { return core.NewSmart(cfg.Geometry, cfg.RefreshInterval(), cfg.Smart) }
		}
		tr := telemetry.NewTracer()
		tr.SetEventLimit(0)
		heap := MustNew(cfg, newPolicy(), Options{Trace: tr})
		scan := MustNew(cfg, newPolicy(), Options{})

		rng := sim.NewRNG(seed)
		g := cfg.Geometry
		var want []closeEvent
		now := sim.Time(0)
		for i := 0; i < 2000; i++ {
			addr := dram.Address{RowID: dram.RowID{
				Channel: rng.Intn(g.Channels),
				Rank:    rng.Intn(g.Ranks),
				Bank:    rng.Intn(g.Banks),
				Row:     rng.Intn(4),
			}}
			reqs := []Request{{Time: now, Addr: heap.Mapper().Unmap(addr), Write: rng.Bool(0.3)}}
			if rng.Bool(0.3) {
				addr.Channel = 1 - addr.Channel
				reqs = append(reqs, Request{Time: now, Addr: heap.Mapper().Unmap(addr)})
			}
			for _, req := range reqs {
				heap.Submit(req)
				want = drainByScan(scan, req.Time, want)
				scan.Submit(req)
			}
			now += sim.Time(rng.Intn(int(3 * heap.idleClose)))
		}
		end := now + 10*heap.idleClose
		heap.AdvanceTo(end)
		want = drainByScan(scan, end, want)

		got := tracedCloses(t, tr)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d page-closes through the heap, %d by min-scan", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: page-close %d: heap (%v us, bank %d), min-scan (%v us, bank %d)",
					seed, i, got[i].ts, got[i].flat, want[i].ts, want[i].flat)
			}
			if i > 0 && want[i].ts == want[i-1].ts {
				ties++
			}
		}
		closes += len(want)
		refreshCloses += heap.Module().Stats().RefreshConflictOps
	}
	// The streams must exercise what the test is about.
	if closes == 0 || ties == 0 || refreshCloses == 0 {
		t.Fatalf("streams too tame: %d page-closes, %d tied deadlines, %d refresh-closed pages",
			closes, ties, refreshCloses)
	}
	t.Logf("%d page-closes, %d tied deadlines, %d refresh-closed pages", closes, ties, refreshCloses)
}

// The controller's trace scope must see idle page-closes and
// self-refresh residency spans alongside the demand commands.
func TestControllerTraceIdleCloseAndSelfRefresh(t *testing.T) {
	cfg := tinyConfig(64 * sim.Millisecond)
	tr := telemetry.NewTracer()
	ctl := MustNew(cfg, core.NewCBR(cfg.Geometry, cfg.RefreshInterval()), Options{
		Trace:            tr,
		SelfRefreshAfter: 100 * sim.Microsecond,
	})

	ctl.Submit(Request{Time: 0, Addr: 0})
	// Let the page-close timeout and then the self-refresh deadline fire,
	// then wake the rank with a second access.
	wake := sim.Time(2 * sim.Millisecond)
	ctl.Submit(Request{Time: wake, Addr: 0})
	ctl.Finish(wake + sim.Time(sim.Millisecond))

	for _, k := range []telemetry.CommandKind{
		telemetry.CmdActivate, telemetry.CmdRead,
		telemetry.CmdIdleClose, telemetry.CmdSelfRefresh,
	} {
		if tr.CommandCount(k) == 0 {
			t.Errorf("trace has no %s events", k)
		}
	}
}
