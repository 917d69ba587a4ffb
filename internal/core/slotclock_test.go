package core

import (
	"testing"

	"smartrefresh/internal/sim"
)

// closedFormSlot is the drift-free slot formula the stepping clock
// replaces, kept as the reference: slot k of a schedule with n slots per
// period, shifted by a constant stagger.
func closedFormSlot(start sim.Time, period sim.Duration, n, k int64, stagger sim.Time) sim.Time {
	whole := k / n
	frac := k % n
	return start + sim.Time(whole)*period + sim.Time(frac)*period/sim.Time(n) + stagger
}

// TestSlotClockMatchesClosedForm walks random schedules — including the
// per-bank family's stagger of b·period/(n·banks) — through at least
// three full passes with a reset part-way, and checks every slot's time,
// pass and in-pass index against the closed form. Periods are drawn so
// that period % n is almost never zero, so a dropped remainder carry
// shows up within one pass.
func TestSlotClockMatchesClosedForm(t *testing.T) {
	rng := sim.NewRNG(7)
	type schedule struct {
		period sim.Duration
		n      int64
	}
	cases := []schedule{
		{64 * sim.Millisecond / 8, 16384}, // Smart's ticks at 2 GB
		{64 * sim.Millisecond, 131072},    // the CBR wheel at 2 GB
		{7, 3},                            // period barely above n
		{5, 9},                            // period below n: quo = 0
		{sim.Millisecond, 1},              // one slot per period
	}
	for i := 0; i < 200; i++ {
		n := int64(rng.Intn(2000) + 1)
		cases = append(cases, schedule{sim.Duration(rng.Int63n(int64(sim.Second))) + 1, n})
	}
	for ci, sc := range cases {
		banks := int64(rng.Intn(16) + 1)
		b := rng.Int63n(banks)
		stagger := sim.Time(b) * sc.period / sim.Time(sc.n*banks)
		start := sim.Time(rng.Int63n(int64(sim.Second)))
		c := newSlotClock(start+stagger, sc.period, sc.n)

		steps := 3*sc.n + rng.Int63n(sc.n) + 1
		resetAt := rng.Int63n(steps)
		k := int64(0)
		for s := int64(0); s <= steps; s++ {
			if s == resetAt {
				start = sim.Time(rng.Int63n(int64(sim.Second)))
				c.reset(start + stagger)
				k = 0
			}
			want := closedFormSlot(start, sc.period, sc.n, k, stagger)
			if c.at != want || c.pass != k/sc.n || c.frac != k%sc.n {
				t.Fatalf("case %d (period %d, n %d, stagger %d): slot %d after %d steps: at %d pass %d frac %d, want at %d pass %d frac %d",
					ci, sc.period, sc.n, stagger, k, s, c.at, c.pass, c.frac, want, k/sc.n, k%sc.n)
			}
			c.step()
			k++
		}
		// Three full passes must follow the reset as well.
		for end := k + 3*sc.n; k <= end; k++ {
			if want := closedFormSlot(start, sc.period, sc.n, k, stagger); c.at != want {
				t.Fatalf("case %d (period %d, n %d): slot %d after the reset: at %d, want %d",
					ci, sc.period, sc.n, k, c.at, want)
			}
			c.step()
		}
	}
}
