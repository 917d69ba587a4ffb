package sim

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	if Second != 1e12 {
		t.Fatalf("Second = %d, want 1e12 ps", int64(Second))
	}
	if Millisecond != 1e9 {
		t.Fatalf("Millisecond = %d, want 1e9 ps", int64(Millisecond))
	}
	if Microsecond != 1e6 {
		t.Fatalf("Microsecond = %d, want 1e6 ps", int64(Microsecond))
	}
	if Nanosecond != 1e3 {
		t.Fatalf("Nanosecond = %d, want 1e3 ps", int64(Nanosecond))
	}
}

func TestTimeConversions(t *testing.T) {
	cases := []struct {
		in   Time
		ms   float64
		ns   float64
		secs float64
	}{
		{0, 0, 0, 0},
		{64 * Millisecond, 64, 64e6, 0.064},
		{Second, 1000, 1e9, 1},
		{70 * Nanosecond, 70e-6, 70, 70e-9},
	}
	for _, c := range cases {
		if got := c.in.Milliseconds(); got != c.ms {
			t.Errorf("%d.Milliseconds() = %v, want %v", int64(c.in), got, c.ms)
		}
		if got := c.in.Nanoseconds(); got != c.ns {
			t.Errorf("%d.Nanoseconds() = %v, want %v", int64(c.in), got, c.ns)
		}
		if got := c.in.Seconds(); got != c.secs {
			t.Errorf("%d.Seconds() = %v, want %v", int64(c.in), got, c.secs)
		}
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ps"},
		{1500, "1.5ns"},
		{64 * Millisecond, "64ms"},
		{2 * Second, "2s"},
		{-64 * Millisecond, "-64ms"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestFromUnits(t *testing.T) {
	cases := []struct {
		n    int64
		unit Duration
		want Duration
		err  string // substring of the error; "" = accepted
	}{
		{70, Nanosecond, 70 * Nanosecond, ""},
		{64, Millisecond, 64 * Millisecond, ""},
		{2, Second, 2 * Second, ""},
		{0, Millisecond, 0, ""},
		{math.MaxInt64, Picosecond, math.MaxInt64, ""},
		// The millisecond boundary: floor(MaxInt64 / 1e9).
		{9223372036, Millisecond, 9223372036 * Millisecond, ""},
		{9223372037, Millisecond, 0, "overflows"},
		{18446744074, Millisecond, 0, "overflows"}, // wrapped to 290.4us before
		{9223372036855, Microsecond, 0, "overflows"},
		{math.MaxInt64, Second, 0, "overflows"},
		{-5, Millisecond, 0, "negative"},
		{math.MinInt64, Picosecond, 0, "negative"},
	}
	for _, c := range cases {
		got, err := FromUnits(c.n, c.unit)
		if c.err == "" {
			if err != nil || got != c.want {
				t.Errorf("FromUnits(%d, %d) = %d, %v; want %d", c.n, int64(c.unit), int64(got), err, int64(c.want))
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("FromUnits(%d, %d) = %d, %v; want error containing %q", c.n, int64(c.unit), int64(got), err, c.err)
		}
	}
}

func TestMinMax(t *testing.T) {
	if Min(1, 2) != 1 || Min(2, 1) != 1 {
		t.Error("Min broken")
	}
	if Max(1, 2) != 2 || Max(2, 1) != 2 {
		t.Error("Max broken")
	}
}

func TestClockNext(t *testing.T) {
	c := NewClock(3000) // DDR2-667 command clock, 3 ns.
	cases := []struct{ in, want Time }{
		{0, 0},
		{-5, 0},
		{1, 3000},
		{2999, 3000},
		{3000, 3000},
		{3001, 6000},
	}
	for _, cse := range cases {
		if got := c.Next(cse.in); got != cse.want {
			t.Errorf("Next(%d) = %d, want %d", int64(cse.in), int64(got), int64(cse.want))
		}
	}
}

func TestClockCycles(t *testing.T) {
	c := NewClock(3000)
	cases := []struct {
		in   Duration
		want int64
	}{
		{0, 0}, {-1, 0}, {1, 1}, {3000, 1}, {3001, 2}, {6000, 2},
	}
	for _, cse := range cases {
		if got := c.Cycles(cse.in); got != cse.want {
			t.Errorf("Cycles(%d) = %d, want %d", int64(cse.in), got, cse.want)
		}
	}
}

func TestClockAfter(t *testing.T) {
	c := NewClock(3000)
	if got := c.After(3000, 100); got != 6000 {
		t.Errorf("After(3000, 100) = %d, want 6000", int64(got))
	}
	if got := c.After(3000, 3000); got != 6000 {
		t.Errorf("After(3000, 3000) = %d, want 6000", int64(got))
	}
}

func TestClockPanicsOnBadPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewClock(0) did not panic")
		}
	}()
	NewClock(0)
}

// Property: Next is idempotent and never moves time backwards, and the
// result is always a multiple of the period.
func TestClockNextProperties(t *testing.T) {
	c := NewClock(3000)
	f := func(raw int64) bool {
		in := Time(raw % int64(Second))
		out := c.Next(in)
		if out < 0 || out%3000 != 0 {
			return false
		}
		if in >= 0 && out < in {
			return false
		}
		return c.Next(out) == out
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
