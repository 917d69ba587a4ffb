package core

import "smartrefresh/internal/sim"

// slotClock walks the drift-free slot schedule the periodic policies
// share (Smart's counter ticks, the CBR and RAIDR wheels, each bank of
// the per-bank family). Slot k of a schedule with n slots per period
// lies at
//
//	start + (k/n)·period + (k%n)·period/n
//
// in integer arithmetic, so rounding never accumulates across passes.
// The clock visits k = 0, 1, 2, ... in order, carrying the pass count,
// the in-pass index and the remainder of the fractional term, so a step
// is an add and a compare instead of the formula's divisions.
type slotClock struct {
	at   sim.Time // time of the current slot k
	base sim.Time // start + pass·period, the time of the pass's first slot
	pass int64    // k / n
	frac int64    // k % n
	rem  int64    // (frac·period) % n, the remainder carried into at

	period sim.Duration
	n      int64
	quo    sim.Duration // period / n
	carry  int64        // period % n
}

// newSlotClock returns a clock of n slots per period (n >= 1, period
// >= 0) standing at slot 0, which lies at start.
func newSlotClock(start sim.Time, period sim.Duration, n int64) slotClock {
	c := slotClock{period: period, n: n, quo: period / sim.Duration(n), carry: int64(period % sim.Duration(n))}
	c.reset(start)
	return c
}

// reset moves the clock back to slot 0 and places it at start.
func (c *slotClock) reset(start sim.Time) {
	c.at, c.base = start, start
	c.pass, c.frac, c.rem = 0, 0, 0
}

// step moves the clock to the next slot.
func (c *slotClock) step() {
	c.frac++
	if c.frac == c.n {
		c.pass++
		c.frac, c.rem = 0, 0
		c.base += c.period
		c.at = c.base
		return
	}
	c.at += c.quo
	c.rem += c.carry
	if c.rem >= c.n {
		c.rem -= c.n
		c.at++
	}
}
