package memctrl

import (
	"testing"
	"testing/quick"

	"smartrefresh/internal/config"
	"smartrefresh/internal/dram"
)

func TestMapperCapacity(t *testing.T) {
	m := NewMapper(config.Table1_2GB().Geometry, RowRankBankColumn)
	if m.Capacity() != 2<<30 {
		t.Fatalf("capacity = %d", m.Capacity())
	}
	if m.BurstBytes() != 32 {
		t.Fatalf("burst bytes = %d", m.BurstBytes())
	}
}

func TestMapperValidCoordinates(t *testing.T) {
	for _, scheme := range []Interleave{RowRankBankColumn, RowColumnRankBank} {
		g := config.Table1_2GB().Geometry
		m := NewMapper(g, scheme)
		for _, phys := range []uint64{0, 31, 32, 4095, 1 << 20, 1<<31 - 1, 1 << 31, 1<<40 + 12345} {
			a := m.Map(phys)
			if !a.Valid(g) {
				t.Errorf("%v: Map(%d) = %+v invalid", scheme, phys, a)
			}
			if a.Column%g.BurstLength != 0 {
				t.Errorf("%v: column %d not burst aligned", scheme, a.Column)
			}
		}
	}
}

func TestMapperOpenPageLocality(t *testing.T) {
	g := config.Table1_2GB().Geometry
	m := NewMapper(g, RowRankBankColumn)
	// Consecutive lines within a 16 KB row-spread must land in the same
	// row with the open-page mapping.
	base := uint64(1 << 20)
	a0 := m.Map(base)
	rowSpan := uint64(g.DataRowBytes()) // bytes mapped before bank changes
	for off := uint64(0); off < rowSpan; off += uint64(m.BurstBytes()) {
		a := m.Map(base + off)
		if a.RowID != a0.RowID {
			t.Fatalf("offset %d changed row: %+v -> %+v", off, a0, a)
		}
	}
	// The next line beyond must change the bank (not the row index).
	next := m.Map(base + rowSpan)
	if next.RowID == a0.RowID {
		t.Error("row did not change across row boundary")
	}
}

func TestMapperBankInterleaveScheme(t *testing.T) {
	g := config.Table1_2GB().Geometry
	m := NewMapper(g, RowColumnRankBank)
	a0 := m.Map(0)
	a1 := m.Map(uint64(m.BurstBytes()))
	if a0.Bank == a1.Bank {
		t.Error("line-interleaved scheme did not change bank on next line")
	}
}

func TestMapperWrapsModuloCapacity(t *testing.T) {
	g := config.Table1_2GB().Geometry
	m := NewMapper(g, RowRankBankColumn)
	if m.Map(123456) != m.Map(123456+uint64(m.Capacity())) {
		t.Error("addresses do not wrap modulo capacity")
	}
}

// Property: Map is a bijection between burst-aligned addresses and
// coordinates; Unmap inverts it.
func TestMapperRoundTripProperty(t *testing.T) {
	for _, scheme := range []Interleave{RowRankBankColumn, RowColumnRankBank} {
		g := dram.Geometry{
			Channels: 2, Ranks: 2, Banks: 4, Rows: 64, Columns: 64,
			DataWidthBits: 72, BurstLength: 4, DevicesPerRank: 2,
		}
		m := NewMapper(g, scheme)
		f := func(raw uint64) bool {
			phys := (raw % uint64(m.Capacity())) &^ uint64(m.BurstBytes()-1)
			a := m.Map(phys)
			return m.Unmap(a) == phys
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("%v: %v", scheme, err)
		}
	}
}

// Property: distinct aligned addresses within capacity map to distinct
// coordinates (injectivity via Unmap).
func TestMapperInjective(t *testing.T) {
	g := dram.Geometry{
		Channels: 1, Ranks: 2, Banks: 2, Rows: 16, Columns: 32,
		DataWidthBits: 72, BurstLength: 4, DevicesPerRank: 2,
	}
	m := NewMapper(g, RowRankBankColumn)
	seen := map[dram.Address]uint64{}
	for phys := uint64(0); phys < uint64(m.Capacity()); phys += uint64(m.BurstBytes()) {
		a := m.Map(phys)
		if prev, dup := seen[a]; dup {
			t.Fatalf("addresses %d and %d both map to %+v", prev, phys, a)
		}
		seen[a] = phys
	}
}

func TestInterleaveString(t *testing.T) {
	if RowRankBankColumn.String() != "row:rank:bank:column" {
		t.Error("scheme 0 name")
	}
	if RowColumnRankBank.String() != "row:column:rank:bank" {
		t.Error("scheme 1 name")
	}
	if Interleave(9).String() == "" {
		t.Error("unknown scheme should render")
	}
}

// TestMapperWrapsByModulo checks that Map wraps a physical address
// modulo the capacity on both wrap paths: the mask a power-of-two
// capacity allows (the paper's 72-bit ECC module) and the % kept for a
// data width that makes the capacity no power of two.
func TestMapperWrapsByModulo(t *testing.T) {
	base := dram.Geometry{Channels: 1, Ranks: 2, Banks: 4, Rows: 1 << 10, Columns: 1 << 10,
		BurstLength: 4, DevicesPerRank: 18}
	for _, tc := range []struct {
		width    int
		capacity int64
		masked   bool
	}{
		{72, 64 << 20, true},  // 64 data bits per column: 64 MiB
		{20, 20 << 20, false}, // 2.5 bytes per column: 20 MiB
	} {
		g := base
		g.DataWidthBits = tc.width
		m := NewMapper(g, RowRankBankColumn)
		if m.Capacity() != tc.capacity || (m.wrapMask != 0) != tc.masked {
			t.Fatalf("width %d: capacity %d, masked %v; want %d, %v",
				tc.width, m.Capacity(), m.wrapMask != 0, tc.capacity, tc.masked)
		}
		c := uint64(m.Capacity())
		for _, phys := range []uint64{0, 32, c - 1, c, c + 32, 3*c + 4096, 1<<40 + 12345, 1<<64 - 1} {
			if got, want := m.Map(phys), m.Map(phys%c); got != want {
				t.Errorf("width %d: Map(%d) = %+v, Map(%d %% capacity) = %+v", tc.width, phys, got, phys, want)
			}
			if a := m.Map(phys); !a.Valid(g) {
				t.Errorf("width %d: Map(%d) = %+v invalid", tc.width, phys, a)
			}
		}
	}
}
