package cache

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"smartrefresh/internal/config"
	"smartrefresh/internal/sim"
)

func tinyCache(ways int) *Cache {
	return New(config.CacheConfig{
		Name: "t", SizeBytes: int64(ways) * 4 * 64, LineBytes: 64, Ways: ways, WriteBack: true,
	})
}

func TestCacheHitMiss(t *testing.T) {
	c := tinyCache(2)
	if r := c.Access(0, false); r.Hit {
		t.Fatal("cold access hit")
	}
	if r := c.Access(0, false); !r.Hit {
		t.Fatal("second access missed")
	}
	if r := c.Access(63, false); !r.Hit {
		t.Fatal("same-line access missed")
	}
	if r := c.Access(64, false); r.Hit {
		t.Fatal("next line hit")
	}
	st := c.Stats()
	if st.Accesses != 4 || st.Hits != 2 || st.Misses != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCacheLRUReplacement(t *testing.T) {
	c := tinyCache(2) // 4 sets, 2 ways; set stride = 4*64 = 256
	// Fill set 0 with two lines, touch the first, then insert a third:
	// the second must be evicted.
	c.Access(0, false)    // line A
	c.Access(1024, false) // line B (same set: 1024 = 4*256)
	c.Access(0, false)    // A is MRU
	c.Access(2048, false) // line C evicts B
	if !c.Contains(0) {
		t.Error("A evicted despite being MRU")
	}
	if c.Contains(1024) {
		t.Error("B survived despite being LRU")
	}
	if !c.Contains(2048) {
		t.Error("C not installed")
	}
}

func TestCacheWritebackOnDirtyEviction(t *testing.T) {
	c := tinyCache(1) // direct mapped, 4 sets
	c.Access(0, true) // dirty line at 0
	r := c.Access(1024, false)
	if !r.WritebackValid || r.Writeback != 0 {
		t.Fatalf("expected writeback of line 0, got %+v", r)
	}
	if c.Stats().Writebacks != 1 {
		t.Error("writeback not counted")
	}
	// Clean eviction must not write back.
	r = c.Access(2048, false)
	if r.WritebackValid {
		t.Fatalf("clean eviction produced writeback: %+v", r)
	}
}

func TestCacheWriteAllocateAndDirtyPropagation(t *testing.T) {
	c := tinyCache(2)
	c.Access(0, false)
	if c.Dirty(0) {
		t.Error("clean line marked dirty")
	}
	c.Access(32, true) // write hit dirties the line
	if !c.Dirty(0) {
		t.Error("write hit did not dirty line")
	}
}

func TestCacheFillAddressIsLineAligned(t *testing.T) {
	c := tinyCache(2)
	r := c.Access(1000, false)
	if !r.FillValid || r.Fill != 960 {
		t.Fatalf("fill = %+v, want line 960", r)
	}
}

func TestCacheFlush(t *testing.T) {
	c := tinyCache(2)
	c.Access(0, true)
	c.Access(64, false)
	c.Access(128, true)
	dirty := c.Flush()
	if len(dirty) != 2 {
		t.Fatalf("flush returned %v", dirty)
	}
	if c.Contains(0) || c.Contains(64) {
		t.Error("lines survive flush")
	}
}

func TestVictimAddrRoundTrip(t *testing.T) {
	// Evicting and refilling the same address must report the original
	// line address.
	c := tinyCache(1)
	addr := uint64(3*256 + 64*0) // set 3
	c.Access(addr, true)
	r := c.Access(addr+1024, false)
	if !r.WritebackValid || r.Writeback != addr {
		t.Fatalf("victim addr = %+v, want %d", r, addr)
	}
}

// Property: after any access sequence the cache invariants hold, and a
// just-accessed line is always present.
func TestCacheInvariantProperty(t *testing.T) {
	f := func(addrs []uint16, writes []bool) bool {
		c := tinyCache(4)
		for i, a := range addrs {
			w := i < len(writes) && writes[i]
			c.Access(uint64(a), w)
			if c.Invariant() != nil {
				return false
			}
			if !c.Contains(uint64(a)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: hits + misses == accesses and fills == misses.
func TestCacheAccountingProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := tinyCache(2)
		for _, a := range addrs {
			c.Access(uint64(a), false)
		}
		st := c.Stats()
		return st.Hits+st.Misses == st.Accesses && st.Fills == st.Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCacheInvariantDetectsCorruption(t *testing.T) {
	c := tinyCache(4)
	c.Access(0, false)
	c.Access(1024, true) // same set 0, now MRU
	if err := c.Invariant(); err != nil {
		t.Fatalf("clean cache: %v", err)
	}
	set := c.lines[:4]
	set[2], set[1] = set[1], 0 // valid line after an empty way
	if c.Invariant() == nil {
		t.Error("gap in the valid prefix not reported")
	}
	set[1], set[2] = set[0]&^lineDirty, 0 // same tag twice, one clean
	if c.Invariant() == nil {
		t.Error("duplicate tag not reported")
	}
}

func TestTable1L2Shape(t *testing.T) {
	l2 := New(config.Table1L2())
	// 1 MB / 64 B = 16384 lines / 8 ways = 2048 sets.
	if sets := len(l2.lines) / l2.cfg.Ways; sets != 2048 {
		t.Errorf("L2 sets = %d, want 2048", sets)
	}
}

func TestHitRate(t *testing.T) {
	c := tinyCache(2)
	if c.Stats().HitRate() != 0 {
		t.Error("idle hit rate not 0")
	}
	c.Access(0, false)
	c.Access(0, false)
	if hr := c.Stats().HitRate(); hr != 0.5 {
		t.Errorf("hit rate = %v", hr)
	}
}

func TestHierarchyFiltersHits(t *testing.T) {
	h := NewHierarchy(
		config.CacheConfig{Name: "l1", SizeBytes: 1024, LineBytes: 64, Ways: 2, WriteBack: true},
		config.CacheConfig{Name: "l2", SizeBytes: 4096, LineBytes: 64, Ways: 4, WriteBack: true},
	)
	out := h.Access(0, 0, false)
	if len(out) != 1 || out[0].Write {
		t.Fatalf("cold miss should reach memory as one read, got %v", out)
	}
	out = h.Access(1, 0, false)
	if len(out) != 0 {
		t.Fatalf("L1 hit leaked to memory: %v", out)
	}
}

func TestHierarchyWritebackCascade(t *testing.T) {
	h := NewHierarchy(
		config.CacheConfig{Name: "l1", SizeBytes: 128, LineBytes: 64, Ways: 1, WriteBack: true},
		config.CacheConfig{Name: "l2", SizeBytes: 256, LineBytes: 64, Ways: 1, WriteBack: true},
	)
	// Dirty a line in tiny L1, then evict it through conflicting lines;
	// the writeback lands in L2, and further conflict pushes it to memory.
	h.Access(0, 0, true)
	var toMem []MemRequest
	for i := uint64(1); i < 8; i++ {
		out := h.Access(sim.Time(i), i*128, false)
		toMem = append(toMem, out...)
	}
	foundWrite := false
	for _, r := range toMem {
		if r.Write && r.Addr == 0 {
			foundWrite = true
		}
	}
	if !foundWrite {
		t.Error("dirty line never written back to memory")
	}
}

func TestHierarchyFlushAll(t *testing.T) {
	h := NewHierarchy(config.CacheConfig{Name: "l1", SizeBytes: 1024, LineBytes: 64, Ways: 2, WriteBack: true})
	h.Access(0, 0, true)
	h.Access(0, 64, false)
	out := h.FlushAll(100)
	if len(out) != 1 || !out[0].Write || out[0].Addr != 0 {
		t.Fatalf("FlushAll = %v", out)
	}
}

func TestDRAMCacheHitTouchesDataArray(t *testing.T) {
	d := NewDRAMCache(config.CacheConfig{
		Name: "3d", SizeBytes: 4096, LineBytes: 64, Ways: 1, WriteBack: true,
	})
	r := d.Access(0, 100, false)
	if r.Hit {
		t.Fatal("cold access hit")
	}
	// Miss: fill write to data array + memory read.
	if len(r.DataAccesses) != 1 || !r.DataAccesses[0].Write {
		t.Fatalf("miss data accesses = %v", r.DataAccesses)
	}
	if len(r.MemoryTraffic) != 1 || r.MemoryTraffic[0].Write {
		t.Fatalf("miss memory traffic = %v", r.MemoryTraffic)
	}
	r = d.Access(1, 100, false)
	if !r.Hit {
		t.Fatal("second access missed")
	}
	if len(r.DataAccesses) != 1 || r.DataAccesses[0].Write {
		t.Fatalf("hit data accesses = %v", r.DataAccesses)
	}
	if len(r.MemoryTraffic) != 0 {
		t.Fatalf("hit produced memory traffic: %v", r.MemoryTraffic)
	}
}

func TestDRAMCacheDirtyEviction(t *testing.T) {
	d := NewDRAMCache(config.CacheConfig{
		Name: "3d", SizeBytes: 4096, LineBytes: 64, Ways: 1, WriteBack: true,
	})
	d.Access(0, 0, true)          // dirty line 0
	r := d.Access(1, 4096, false) // conflicts in direct-mapped 4 KB cache
	if r.Hit {
		t.Fatal("conflicting access hit")
	}
	// Victim read from data array + fill write; victim write + fill read
	// to memory.
	if len(r.DataAccesses) != 2 {
		t.Fatalf("data accesses = %v", r.DataAccesses)
	}
	if r.DataAccesses[0].Write || !r.DataAccesses[1].Write {
		t.Fatalf("data access kinds = %v", r.DataAccesses)
	}
	if len(r.MemoryTraffic) != 2 {
		t.Fatalf("memory traffic = %v", r.MemoryTraffic)
	}
	if !r.MemoryTraffic[0].Write || r.MemoryTraffic[1].Write {
		t.Fatalf("memory traffic kinds = %v", r.MemoryTraffic)
	}
}

func TestDRAMCacheDataAddrWithinModule(t *testing.T) {
	d := NewDRAMCache(config.Table2_3DCache())
	r := d.Access(0, 1<<30, false) // far beyond 64 MB
	for _, a := range r.DataAccesses {
		if a.Addr >= 64<<20 {
			t.Fatalf("data address %d outside 64 MB module", a.Addr)
		}
	}
}

// Property: direct-mapped DRAM cache conflict behaviour — two addresses
// that differ by a multiple of the cache size always conflict.
func TestDRAMCacheConflictProperty(t *testing.T) {
	d := NewDRAMCache(config.CacheConfig{
		Name: "3d", SizeBytes: 1 << 20, LineBytes: 64, Ways: 1, WriteBack: true,
	})
	f := func(base uint32, k uint8) bool {
		a := uint64(base)
		b := a + (uint64(k%4)+1)*(1<<20)
		d.Access(0, a, false)
		r := d.Access(1, b, false)
		if r.Hit {
			return false
		}
		r2 := d.Access(2, a, false)
		return !r2.Hit // b evicted a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// refLine, refCache and its methods are the slice-of-slices LRU cache the
// flat packed tag store replaced, kept verbatim as the reference model:
// one separately allocated slice per set, ordered MRU → LRU, grown by
// append until the set is full.
type refLine struct {
	tag   uint64
	valid bool
	dirty bool
}

type refCache struct {
	cfg      config.CacheConfig
	sets     [][]refLine // each set ordered most- to least-recently used
	setMask  uint64
	lineBits uint
	stats    Stats
}

func newRefCache(cfg config.CacheConfig) *refCache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	lines := cfg.SizeBytes / int64(cfg.LineBytes)
	sets := int(lines / int64(cfg.Ways))
	c := &refCache{
		cfg:      cfg,
		sets:     make([][]refLine, sets),
		setMask:  uint64(sets - 1),
		lineBits: uint(bits.TrailingZeros64(uint64(cfg.LineBytes))),
	}
	for i := range c.sets {
		c.sets[i] = make([]refLine, 0, cfg.Ways)
	}
	return c
}

func (c *refCache) LineAddr(addr uint64) uint64 { return addr &^ (uint64(c.cfg.LineBytes) - 1) }

func (c *refCache) index(addr uint64) (set int, tag uint64) {
	l := addr >> c.lineBits
	return int(l & c.setMask), l >> bits.TrailingZeros64(c.setMask+1)
}

func (c *refCache) Access(addr uint64, write bool) Result {
	c.stats.Accesses++
	setIdx, tag := c.index(addr)
	set := c.sets[setIdx]

	for i := range set {
		if set[i].valid && set[i].tag == tag {
			// Hit: move to MRU position.
			hitLine := set[i]
			if write {
				hitLine.dirty = true
			}
			copy(set[1:i+1], set[:i])
			set[0] = hitLine
			c.stats.Hits++
			return Result{Hit: true}
		}
	}

	// Miss.
	c.stats.Misses++
	res := Result{Fill: c.LineAddr(addr), FillValid: true}
	c.stats.Fills++
	newLine := refLine{tag: tag, valid: true, dirty: write}

	if len(set) < c.cfg.Ways {
		set = append(set, refLine{})
		copy(set[1:], set)
		set[0] = newLine
		c.sets[setIdx] = set
		return res
	}
	victim := set[len(set)-1]
	if victim.valid && victim.dirty {
		res.Writeback = c.victimAddr(setIdx, victim.tag)
		res.WritebackValid = true
		c.stats.Writebacks++
	}
	copy(set[1:], set)
	set[0] = newLine
	return res
}

func (c *refCache) Contains(addr uint64) bool {
	setIdx, tag := c.index(addr)
	for _, l := range c.sets[setIdx] {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

func (c *refCache) Dirty(addr uint64) bool {
	setIdx, tag := c.index(addr)
	for _, l := range c.sets[setIdx] {
		if l.valid && l.tag == tag {
			return l.dirty
		}
	}
	return false
}

func (c *refCache) victimAddr(setIdx int, tag uint64) uint64 {
	setBits := uint(bits.TrailingZeros64(c.setMask + 1))
	return ((tag << setBits) | uint64(setIdx)) << c.lineBits
}

func (c *refCache) Flush() []uint64 {
	var dirty []uint64
	for si := range c.sets {
		for _, l := range c.sets[si] {
			if l.valid && l.dirty {
				dirty = append(dirty, c.victimAddr(si, l.tag))
			}
		}
		c.sets[si] = c.sets[si][:0]
	}
	return dirty
}

func (c *refCache) Invariant() error {
	for si, set := range c.sets {
		if len(set) > c.cfg.Ways {
			return fmt.Errorf("cache: set %d holds %d lines, ways %d", si, len(set), c.cfg.Ways)
		}
		seen := map[uint64]bool{}
		for _, l := range set {
			if !l.valid {
				continue
			}
			if seen[l.tag] {
				return fmt.Errorf("cache: duplicate tag %#x in set %d", l.tag, si)
			}
			seen[l.tag] = true
		}
	}
	return nil
}

// refAccess is one step of a differential stream.
type refAccess struct {
	addr  uint64
	write bool
	flush bool
}

// compareWithReference drives a Cache and the reference model with the
// same stream and reports the first divergence in a Result, Stats,
// Contains/Dirty of the accessed line, Invariant() or Flush output.
func compareWithReference(cfg config.CacheConfig, stream []refAccess) error {
	got, want := New(cfg), newRefCache(cfg)
	for i, a := range stream {
		if a.flush {
			if g, w := got.Flush(), want.Flush(); !reflect.DeepEqual(g, w) {
				return fmt.Errorf("step %d: Flush = %v, reference %v", i, g, w)
			}
		} else if g, w := got.Access(a.addr, a.write), want.Access(a.addr, a.write); g != w {
			return fmt.Errorf("step %d: Access(%#x, %v) = %+v, reference %+v", i, a.addr, a.write, g, w)
		}
		if g, w := got.Stats(), want.stats; g != w {
			return fmt.Errorf("step %d: Stats = %+v, reference %+v", i, g, w)
		}
		// Probe the accessed line and its set-conflicting neighbours.
		for k := uint64(0); k < 3; k++ {
			probe := a.addr + k*uint64(cfg.SizeBytes/int64(cfg.Ways))
			if g, w := got.Contains(probe), want.Contains(probe); g != w {
				return fmt.Errorf("step %d: Contains(%#x) = %v, reference %v", i, probe, g, w)
			}
			if g, w := got.Dirty(probe), want.Dirty(probe); g != w {
				return fmt.Errorf("step %d: Dirty(%#x) = %v, reference %v", i, probe, g, w)
			}
		}
		if err := got.Invariant(); err != nil {
			return fmt.Errorf("step %d: %v", i, err)
		}
		if err := want.Invariant(); err != nil {
			return fmt.Errorf("step %d: reference: %v", i, err)
		}
	}
	if g, w := got.Flush(), want.Flush(); !reflect.DeepEqual(g, w) {
		return fmt.Errorf("final Flush = %v, reference %v", g, w)
	}
	return nil
}

// diffCacheConfig builds a small cache whose line size, set count and
// associativity come from the low bits of shape.
func diffCacheConfig(shape byte) config.CacheConfig {
	ways := 1 << (shape & 3)               // 1, 2, 4, 8
	sets := int64(1) << ((shape >> 2) & 3) // 1, 2, 4, 8
	lineBytes := 4 << ((shape >> 4) & 3)   // 4, 8, 16, 32
	return config.CacheConfig{
		Name: "diff", SizeBytes: sets * int64(ways) * int64(lineBytes),
		LineBytes: lineBytes, Ways: ways, WriteBack: true,
	}
}

func TestCacheMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for shape := 0; shape < 64; shape++ {
		cfg := diffCacheConfig(byte(shape))
		for trial := 0; trial < 8; trial++ {
			// Addresses span a few times the cache so sets fill, hit,
			// evict and write back; occasional flushes restart them, and
			// a few far addresses exercise wide tags.
			span := uint64(cfg.SizeBytes) * uint64(2+trial)
			stream := make([]refAccess, 400)
			for i := range stream {
				a := refAccess{addr: uint64(rng.Int63n(int64(span))), write: rng.Intn(3) == 0}
				switch rng.Intn(100) {
				case 0:
					a.flush = true
				case 1:
					a.addr = rng.Uint64()
				}
				stream[i] = a
			}
			if err := compareWithReference(cfg, stream); err != nil {
				t.Fatalf("%+v trial %d: %v", cfg, trial, err)
			}
		}
	}
}

// FuzzCacheMatchesReference drives the packed cache and the reference
// model with a byte-encoded stream: the first byte picks the cache shape,
// then every three bytes are one access (two address bytes, then a flag
// byte whose bit 0 marks a write and whose value 0xff flushes).
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add([]byte{0x05, 0, 0, 1, 0, 64, 0, 1, 0, 0, 0, 0, 0xff})
	f.Add([]byte{0x3b, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := diffCacheConfig(data[0])
		var stream []refAccess
		for b := data[1:]; len(b) >= 3; b = b[3:] {
			stream = append(stream, refAccess{
				addr:  uint64(b[0])<<8 | uint64(b[1]),
				write: b[2]&1 != 0,
				flush: b[2] == 0xff,
			})
		}
		if err := compareWithReference(cfg, stream); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
	})
}
