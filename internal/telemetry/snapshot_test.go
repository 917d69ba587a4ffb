package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"smartrefresh/internal/sim"
	"smartrefresh/internal/stats"
)

func TestSnapshotterCadence(t *testing.T) {
	reg := NewRegistry()
	var c stats.Counter
	reg.RegisterCounter("requests", &c)

	var got []Snapshot
	s := NewSnapshotter(reg, 10*sim.Millisecond, func(snap Snapshot) error {
		got = append(got, snap)
		return nil
	})

	// Below the first boundary: nothing.
	for _, now := range []sim.Time{0, 3 * sim.Millisecond, 9 * sim.Millisecond} {
		if err := s.Observe(now, 1); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != 0 {
		t.Fatalf("premature snapshots: %d", len(got))
	}
	c.Add(5)
	if err := s.Observe(10*sim.Millisecond, 100); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Seq != 1 || got[0].Records != 100 {
		t.Fatalf("first snapshot = %+v", got)
	}
	if len(got[0].Metrics) != 1 || got[0].Metrics[0].Value != 5 {
		t.Fatalf("snapshot metrics = %+v", got[0].Metrics)
	}
	// A long idle gap produces ONE snapshot, not one per missed boundary.
	if err := s.Observe(95*sim.Millisecond, 200); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("idle gap emitted %d snapshots, want 2 total", len(got))
	}
	// The clock resumed past the gap.
	if err := s.Observe(96*sim.Millisecond, 201); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatal("snapshot emitted before the next boundary after a gap")
	}
	if err := s.Final(99*sim.Millisecond, 300); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || !got[2].Final || got[2].Seq != 3 {
		t.Fatalf("final snapshot = %+v", got[len(got)-1])
	}
	if s.Count() != 3 {
		t.Errorf("Count() = %d", s.Count())
	}
}

func TestSnapshotterDisabled(t *testing.T) {
	var s *Snapshotter
	if err := s.Observe(sim.Second, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Final(sim.Second, 1); err != nil {
		t.Fatal(err)
	}
	if s.Count() != 0 {
		t.Error("nil snapshotter counted")
	}
	if NewSnapshotter(nil, sim.Millisecond, func(Snapshot) error { return nil }) != nil {
		t.Error("nil registry produced an enabled snapshotter")
	}
	if NewSnapshotter(NewRegistry(), 0, func(Snapshot) error { return nil }) != nil {
		t.Error("zero interval produced an enabled snapshotter")
	}
	if NewSnapshotter(NewRegistry(), sim.Millisecond, nil) != nil {
		t.Error("nil emitter produced an enabled snapshotter")
	}
}

func TestSnapshotterEmitErrorPropagates(t *testing.T) {
	boom := errors.New("sink gone")
	s := NewSnapshotter(NewRegistry(), sim.Millisecond, func(Snapshot) error { return boom })
	if err := s.Observe(sim.Millisecond, 1); !errors.Is(err, boom) {
		t.Fatalf("Observe error = %v, want %v", err, boom)
	}
}

func TestJSONLEmitter(t *testing.T) {
	reg := NewRegistry()
	var c stats.Counter
	c.Add(7)
	reg.RegisterCounter("x", &c)
	var buf bytes.Buffer
	emit := JSONLEmitter(&buf)
	s := NewSnapshotter(reg, sim.Millisecond, emit)
	if err := s.Observe(sim.Millisecond, 10); err != nil {
		t.Fatal(err)
	}
	if err := s.Final(2*sim.Millisecond, 20); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines: %q", len(lines), buf.String())
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(lines[1]), &snap); err != nil {
		t.Fatal(err)
	}
	if !snap.Final || snap.Records != 20 || len(snap.Metrics) != 1 {
		t.Fatalf("final line = %+v", snap)
	}
}

func TestFileEmitterAtomicRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	reg := NewRegistry()
	emit := FileEmitter(path)
	s := NewSnapshotter(reg, sim.Millisecond, emit)
	for i := 1; i <= 3; i++ {
		if err := s.Observe(sim.Time(i)*sim.Millisecond, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	// The file holds only the latest snapshot.
	if snap.Seq != 3 || snap.Records != 3 {
		t.Fatalf("file snapshot = %+v, want seq 3", snap)
	}
}

// TestSnapshotterNearEndOfTime checks Observe terminates when the next
// boundary lies past the int64 picosecond range: stepping the boundary
// one interval at a time overflowed into negative times and never left
// the loop.
func TestSnapshotterNearEndOfTime(t *testing.T) {
	var got []Snapshot
	every := 4611686018 * sim.Millisecond // 2*every fits, 3*every overflows
	s := NewSnapshotter(NewRegistry(), every, func(snap Snapshot) error {
		got = append(got, snap)
		return nil
	})
	done := make(chan error, 1)
	go func() {
		if err := s.Observe(math.MaxInt64, 1); err != nil {
			done <- err
			return
		}
		done <- s.Observe(math.MaxInt64-1, 2)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Observe(MaxInt64) did not return")
	}
	// One snapshot at the end of time; the saturated boundary is not
	// crossed again before it.
	if len(got) != 1 || got[0].Seq != 1 || got[0].SimTime != math.MaxInt64 {
		t.Fatalf("snapshots = %+v, want one at MaxInt64", got)
	}
}

// TestSnapshotterMatchesSteppingReference checks the arithmetic
// boundary against the interval-stepping loop it replaced: over random
// in-range cadences and monotone observation times, the emitted count,
// Seq and SimTime are the same.
func TestSnapshotterMatchesSteppingReference(t *testing.T) {
	rng := sim.NewRNG(7)
	for trial := 0; trial < 200; trial++ {
		every := sim.Duration(1 + rng.Intn(1000))
		var got []Snapshot
		s := NewSnapshotter(NewRegistry(), every, func(snap Snapshot) error {
			got = append(got, snap)
			return nil
		})
		var want []Snapshot
		next, seq := every, 0
		now := sim.Time(0)
		for i := 0; i < 100; i++ {
			now += sim.Time(rng.Intn(3 * int(every)))
			if err := s.Observe(now, uint64(i)); err != nil {
				t.Fatal(err)
			}
			if now >= next {
				for next <= now {
					next += every
				}
				seq++
				want = append(want, Snapshot{Seq: seq, SimTime: now, Records: uint64(i)})
			}
		}
		if len(got) != len(want) {
			t.Fatalf("every=%d: %d snapshots, want %d", every, len(got), len(want))
		}
		for i := range want {
			if got[i].Seq != want[i].Seq || got[i].SimTime != want[i].SimTime || got[i].Records != want[i].Records {
				t.Fatalf("every=%d: snapshot %d = %+v, want %+v", every, i, got[i], want[i])
			}
		}
	}
}
