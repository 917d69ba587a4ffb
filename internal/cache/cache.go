// Package cache implements the SRAM cache hierarchy the paper's
// methodology uses (Ruby's role): set-associative write-back caches with
// LRU replacement for L1/L2, and the 3D die-stacked DRAM cache of section
// 4.5/6 — a direct-mapped cache whose tag array is SRAM on the processor
// die and whose data array is the stacked DRAM module, so every cache
// access (hit or fill) becomes DRAM activity in the stacked device.
package cache

import (
	"fmt"
	"math/bits"

	"smartrefresh/internal/config"
)

// Stats aggregates cache activity.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Writebacks uint64
	Fills      uint64
}

// HitRate returns hits/accesses (0 when idle).
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Result describes the outcome of one cache access.
type Result struct {
	Hit bool
	// Writeback, when WritebackValid, is the line address of a dirty
	// victim that must be written to the next level.
	Writeback      uint64
	WritebackValid bool
	// Fill, when FillValid, is the line address that must be fetched from
	// the next level (always the accessed line on a miss).
	Fill      uint64
	FillValid bool
}

// line is one packed tag-store entry: tag<<2 | dirty<<1 | valid. An
// empty way is 0. config.CacheConfig.Validate requires LineBytes >= 4, so
// a tag has at most 62 bits and always fits.
type line uint64

const (
	lineValid line = 1 << iota
	lineDirty

	lineValidDirty = lineValid | lineDirty
)

func (l line) tag() uint64 { return uint64(l) >> 2 }

// Cache is a blocking set-associative write-back cache with true-LRU
// replacement and write-allocate. It is not safe for concurrent use.
type Cache struct {
	cfg config.CacheConfig
	// lines is the whole tag store, one flat pointer-free slice: set s is
	// lines[s*Ways:(s+1)*Ways]. Its valid lines form a prefix ordered
	// most- to least-recently used; the rest are empty ways.
	lines    []line
	setMask  uint64
	setBits  uint
	lineBits uint
	stats    Stats
}

// New builds a cache from a validated configuration; it panics on an
// invalid one (a configuration bug, not a runtime condition).
func New(cfg config.CacheConfig) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	lines := cfg.SizeBytes / int64(cfg.LineBytes)
	sets := uint64(lines) / uint64(cfg.Ways)
	return &Cache{
		cfg:      cfg,
		lines:    make([]line, lines),
		setMask:  sets - 1,
		setBits:  uint(bits.TrailingZeros64(sets)),
		lineBits: uint(bits.TrailingZeros64(uint64(cfg.LineBytes))),
	}
}

// Config returns the cache configuration.
func (c *Cache) Config() config.CacheConfig { return c.cfg }

// Stats returns the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// LineAddr returns addr rounded down to its line.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr &^ (uint64(c.cfg.LineBytes) - 1) }

// lookup returns the set holding addr and the valid, clean entry its line
// would have.
func (c *Cache) lookup(addr uint64) (setIdx int, set []line, want line) {
	l := addr >> c.lineBits
	setIdx = int(l & c.setMask)
	want = line(l>>c.setBits)<<2 | lineValid
	return setIdx, c.lines[setIdx*c.cfg.Ways : (setIdx+1)*c.cfg.Ways], want
}

// find returns the way of set holding want's line, or -1. Empty ways
// never match: want has the valid bit set.
func find(set []line, want line) int {
	for i, l := range set {
		if l&^lineDirty == want {
			return i
		}
	}
	return -1
}

// Access performs a read or write with write-allocate. On a miss the line
// is installed; a dirty victim is reported for write-back to the next
// level.
func (c *Cache) Access(addr uint64, write bool) Result {
	c.stats.Accesses++
	setIdx, set, want := c.lookup(addr)
	var dirty line
	if write {
		dirty = lineDirty
	}

	if i := find(set, want); i >= 0 {
		// Hit: move to MRU position.
		hitLine := set[i] | dirty
		copy(set[1:i+1], set[:i])
		set[0] = hitLine
		c.stats.Hits++
		return Result{Hit: true}
	}

	// Miss: shift the set right by one, dropping the LRU way (an empty
	// way while the set is not yet full), and install at MRU.
	c.stats.Misses++
	res := Result{Fill: c.LineAddr(addr), FillValid: true}
	c.stats.Fills++
	if victim := set[len(set)-1]; victim&lineValidDirty == lineValidDirty {
		res.Writeback = c.victimAddr(setIdx, victim.tag())
		res.WritebackValid = true
		c.stats.Writebacks++
	}
	copy(set[1:], set)
	set[0] = want | dirty
	return res
}

// Contains reports whether the line holding addr is present (no LRU or
// statistics side effects).
func (c *Cache) Contains(addr uint64) bool {
	_, set, want := c.lookup(addr)
	return find(set, want) >= 0
}

// Dirty reports whether the line holding addr is present and dirty.
func (c *Cache) Dirty(addr uint64) bool {
	_, set, want := c.lookup(addr)
	i := find(set, want)
	return i >= 0 && set[i]&lineDirty != 0
}

func (c *Cache) victimAddr(setIdx int, tag uint64) uint64 {
	return ((tag << c.setBits) | uint64(setIdx)) << c.lineBits
}

// Flush evicts every line, returning the addresses of dirty lines in
// deterministic order: by set, then most- to least-recently used.
func (c *Cache) Flush() []uint64 {
	var dirty []uint64
	for i, l := range c.lines {
		if l&lineValidDirty == lineValidDirty {
			dirty = append(dirty, c.victimAddr(i/c.cfg.Ways, l.tag()))
		}
	}
	clear(c.lines)
	return dirty
}

// Invariant checks internal consistency (used by property tests): each
// set's valid lines form a prefix and no tag repeats within a set.
func (c *Cache) Invariant() error {
	ways := c.cfg.Ways
	for si := 0; si*ways < len(c.lines); si++ {
		set := c.lines[si*ways : (si+1)*ways]
		empty := -1
		for i, l := range set {
			switch {
			case l&lineValid == 0:
				if empty < 0 {
					empty = i
				}
			case empty >= 0:
				return fmt.Errorf("cache: set %d has a valid line in way %d after empty way %d", si, i, empty)
			case find(set[:i], l&^lineDirty) >= 0:
				return fmt.Errorf("cache: duplicate tag %#x in set %d", l.tag(), si)
			}
		}
	}
	return nil
}
