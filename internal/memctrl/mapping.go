// Package memctrl implements the enhanced memory controller of the paper:
// physical-address mapping, open-page transaction handling against the
// DRAM module, and the refresh machinery — the policy's pending refresh
// requests are dispatched to the module as RAS-only or CBR refresh
// operations, interleaved with demand traffic in time order (Figure 5).
package memctrl

import (
	"fmt"
	"math/bits"

	"smartrefresh/internal/dram"
)

// Interleave selects how a physical byte address is split into DRAM
// coordinates.
type Interleave int

const (
	// RowRankBankColumn is the open-page-friendly mapping the paper's
	// open-page row-buffer policy implies: column bits lowest, then bank,
	// then rank, then row — consecutive lines stay in one row, and rows
	// interleave across banks at row-buffer granularity.
	RowRankBankColumn Interleave = iota
	// RowColumnRankBank interleaves banks at line granularity
	// (close-page-friendly); included for mapping ablations.
	RowColumnRankBank
)

// String names the interleave.
func (i Interleave) String() string {
	switch i {
	case RowRankBankColumn:
		return "row:rank:bank:column"
	case RowColumnRankBank:
		return "row:column:rank:bank"
	default:
		return fmt.Sprintf("Interleave(%d)", int(i))
	}
}

// Mapper translates physical byte addresses to DRAM coordinates. The unit
// of a "column" here is one burst (AccessBytes), so one mapped column
// corresponds to one data transfer.
type Mapper struct {
	burstLength int

	// lineShift is log2 of the burst bytes. Above it, each coordinate is
	// one bit field of the burst-unit address; the interleave fixes the
	// order of the fields once, in NewMapper.
	lineShift                     uint
	col, bank, rank, channel, row bitField

	capacity   int64
	burstBytes int64

	// wrapMask is capacity-1 when capacity is a power of two, so Map wraps
	// with a mask; zero otherwise, and Map wraps with %. DataWidthBits is
	// not required to be a power of two, so the capacity need not be.
	wrapMask uint64
}

// bitField is one coordinate's bits of a burst-unit address.
type bitField struct {
	shift uint
	mask  uint64
}

func (f bitField) get(a uint64) int { return int(a >> f.shift & f.mask) }

// NewMapper builds a mapper for the geometry. It panics on a geometry
// whose dimensions are not powers of two (Validate enforces that) and on
// an unknown interleave.
func NewMapper(g dram.Geometry, scheme Interleave) *Mapper {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	burst := g.AccessBytes()
	if burst <= 0 || burst&(burst-1) != 0 {
		panic(fmt.Sprintf("memctrl: burst bytes %d not a power of two", burst))
	}
	// Columns are addressed in bursts: columns-per-row / burst-length.
	colUnits := g.Columns / g.BurstLength
	if colUnits <= 0 || colUnits&(colUnits-1) != 0 {
		panic(fmt.Sprintf("memctrl: %d column units not a power of two", colUnits))
	}
	capacity := g.CapacityBytes()
	m := &Mapper{
		burstLength: g.BurstLength,
		lineShift:   uint(bits.TrailingZeros64(uint64(burst))),
		capacity:    capacity,
		burstBytes:  burst,
	}
	if capacity&(capacity-1) == 0 {
		m.wrapMask = uint64(capacity) - 1
	}
	type dim struct {
		f *bitField
		n int
	}
	col, bank, rank := dim{&m.col, colUnits}, dim{&m.bank, g.Banks}, dim{&m.rank, g.Ranks}
	ch, row := dim{&m.channel, g.Channels}, dim{&m.row, g.Rows}
	var order []dim // lowest field first
	switch scheme {
	case RowRankBankColumn:
		order = []dim{col, bank, rank, ch, row}
	case RowColumnRankBank:
		order = []dim{bank, rank, ch, col, row}
	default:
		panic(fmt.Sprintf("memctrl: unknown interleave %d", int(scheme)))
	}
	shift := uint(0)
	for _, d := range order {
		n := uint(bits.TrailingZeros64(uint64(d.n)))
		*d.f = bitField{shift: shift, mask: 1<<n - 1}
		shift += n
	}
	return m
}

// Capacity returns the addressable bytes.
func (m *Mapper) Capacity() int64 { return m.capacity }

// BurstBytes returns the bytes of one mapped column unit.
func (m *Mapper) BurstBytes() int64 { return m.burstBytes }

// Map translates a physical byte address (wrapped modulo capacity) into
// DRAM coordinates. The returned Column is in burst units scaled back to
// device columns.
func (m *Mapper) Map(phys uint64) dram.Address {
	var a uint64
	if m.wrapMask != 0 {
		a = phys & m.wrapMask
	} else {
		a = phys % uint64(m.capacity)
	}
	a >>= m.lineShift
	return dram.Address{
		RowID:  dram.RowID{Channel: m.channel.get(a), Rank: m.rank.get(a), Bank: m.bank.get(a), Row: m.row.get(a)},
		Column: m.col.get(a) * m.burstLength,
	}
}

// Unmap is the inverse of Map for addresses aligned to a burst; it returns
// the lowest physical address mapping to the coordinates.
func (m *Mapper) Unmap(addr dram.Address) uint64 {
	a := uint64(addr.Column/m.burstLength)<<m.col.shift |
		uint64(addr.Bank)<<m.bank.shift |
		uint64(addr.Rank)<<m.rank.shift |
		uint64(addr.Channel)<<m.channel.shift |
		uint64(addr.Row)<<m.row.shift
	return a << m.lineShift
}
