// Steady-state allocation budget of the hot paths: once buffers have
// grown to their working size, policy Advance and controller Submit must
// not allocate. testing.AllocsPerRun is exact and machine-independent, so
// these tests pin the budget in tier-1 CI; cmd/benchdiff gates the
// coarser -benchmem numbers against the committed baseline.
package smartrefresh_test

import (
	"testing"

	"smartrefresh"
	"smartrefresh/internal/cache"
	"smartrefresh/internal/config"
	"smartrefresh/internal/sim"
)

// warmPolicy drives a policy long enough for its internal buffers (and
// the caller's command buffer) to reach steady-state capacity.
func warmPolicy(p smartrefresh.Policy, step smartrefresh.Duration, ticks int) (smartrefresh.Time, []smartrefresh.RefreshCommand) {
	var now smartrefresh.Time
	var cmds []smartrefresh.RefreshCommand
	for i := 0; i < ticks; i++ {
		now += smartrefresh.Time(step)
		cmds = p.Advance(now, cmds[:0])
	}
	return now, cmds
}

func TestPolicyAdvanceSteadyStateAllocFree(t *testing.T) {
	cfg := smartrefresh.Table1_2GB()
	cfg.Smart.SelfDisable = false
	interval := cfg.RefreshInterval()
	tickStep := interval / smartrefresh.Duration(cfg.Geometry.TotalRows())

	cases := []struct {
		name   string
		policy smartrefresh.Policy
		step   smartrefresh.Duration
	}{
		{"smart", smartrefresh.NewSmartPolicy(cfg), tickStep},
		{"cbr", smartrefresh.NewCBRPolicy(cfg), tickStep},
		// A whole burst per step: exercises the chunked emission loop.
		{"burst", smartrefresh.NewBurstPolicy(cfg), interval},
		{"oracle", smartrefresh.NewOraclePolicy(cfg), tickStep},
		{"darp", smartrefresh.NewDARPPolicy(cfg, smartrefresh.DefaultPerBankConfig()), tickStep},
		{"sarp", smartrefresh.NewSARPPolicy(cfg, smartrefresh.DefaultPerBankConfig()), tickStep},
		{"raidr", smartrefresh.NewRAIDRPolicy(cfg, smartrefresh.DefaultRAIDRConfig(),
			smartrefresh.NewRetentionMap(cfg.Geometry, smartrefresh.DefaultRetentionClasses(), 1)), tickStep},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			now, cmds := warmPolicy(tc.policy, tc.step, 4096)
			avg := testing.AllocsPerRun(200, func() {
				now += smartrefresh.Time(tc.step)
				cmds = tc.policy.Advance(now, cmds[:0])
			})
			if avg != 0 {
				t.Errorf("%s steady-state Advance allocates %.1f allocs/op, want 0", tc.name, avg)
			}
		})
	}
}

func TestControllerSubmitSteadyStateAllocFree(t *testing.T) {
	cfg := smartrefresh.Table1_2GB()
	ctl, err := smartrefresh.NewController(cfg, smartrefresh.NewSmartPolicy(cfg),
		smartrefresh.ControllerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var now smartrefresh.Time
	var i uint64
	submit := func() {
		now += 200 * smartrefresh.Nanosecond
		i++
		ctl.Submit(smartrefresh.Request{Time: now, Addr: i * 16384})
	}
	for n := 0; n < 4096; n++ {
		submit()
	}
	if avg := testing.AllocsPerRun(200, submit); avg != 0 {
		t.Errorf("steady-state Submit allocates %.1f allocs/op, want 0", avg)
	}
}

// The per-bank arbiter path — demand observation, slot arbitration,
// REFpb dispatch — must also stay allocation-free once warm.
func TestControllerSubmitDARPSteadyStateAllocFree(t *testing.T) {
	cfg := smartrefresh.Table1_2GB()
	ctl, err := smartrefresh.NewController(cfg,
		smartrefresh.NewDARPPolicy(cfg, smartrefresh.DefaultPerBankConfig()),
		smartrefresh.ControllerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var now smartrefresh.Time
	var i uint64
	submit := func() {
		now += 200 * smartrefresh.Nanosecond
		i++
		ctl.Submit(smartrefresh.Request{Time: now, Addr: i * 16384, Write: i%4 == 0})
	}
	for n := 0; n < 4096; n++ {
		submit()
	}
	if avg := testing.AllocsPerRun(200, submit); avg != 0 {
		t.Errorf("steady-state DARP Submit allocates %.1f allocs/op, want 0", avg)
	}
}

// The power-state machine path — deadline re-arms, power-down entries,
// demand wakes — must be allocation-free once warm.
func TestPowerStateCycleSteadyStateAllocFree(t *testing.T) {
	cfg := smartrefresh.Table1_2GB()
	ctl, err := smartrefresh.NewController(cfg, smartrefresh.NewSmartPolicy(cfg),
		smartrefresh.ControllerOptions{
			SelfRefreshAfter: 100 * smartrefresh.Microsecond,
			PowerStates: smartrefresh.PowerStateConfig{
				ActPdnAfter:     1 * smartrefresh.Microsecond,
				PrePdnFastAfter: 5 * smartrefresh.Microsecond,
				PrePdnSlowAfter: 50 * smartrefresh.Microsecond,
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	var now smartrefresh.Time
	var i uint64
	cycle := func() {
		i++
		ctl.Submit(smartrefresh.Request{Time: now, Addr: i * 16384})
		now += 10 * smartrefresh.Microsecond
		ctl.AdvanceTo(now)
	}
	for n := 0; n < 2048; n++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Errorf("steady-state power-state cycle allocates %.1f allocs/op, want 0", avg)
	}
}

// The idle refresh-wake path: with no demand at all, every CBR refresh
// wakes a rank sleeping in PRE-PDN-slow, and the rank re-walks the
// ladder (ACT-PDN skipped, PRE-PDN fast, PRE-PDN slow) as soon as the
// refresh drains — the loop that dominates the idle-OS workload. The
// ladder-full power-down rungs are armed; its self-refresh rungs are
// not, because with no demand they would put every rank to sleep after
// 200 us, and a refresh to a self-refreshing rank is dropped instead of
// waking it.
func TestIdleRefreshWakeSteadyStateAllocFree(t *testing.T) {
	cfg := smartrefresh.Table1_2GB()
	var ladder smartrefresh.PowerStateConfig
	for _, p := range smartrefresh.PowerStatePolicies() {
		if p.Name == "ladder-full" {
			ladder = p.Cfg
		}
	}
	ladder.SRSlowAfter = 0
	ctl, err := smartrefresh.NewController(cfg, smartrefresh.NewCBRPolicy(cfg),
		smartrefresh.ControllerOptions{PowerStates: ladder})
	if err != nil {
		t.Fatal(err)
	}
	tick := cfg.RefreshInterval() / smartrefresh.Duration(cfg.Geometry.TotalRows())
	var now smartrefresh.Time
	step := func() {
		now += smartrefresh.Time(tick)
		ctl.AdvanceTo(now)
	}
	for n := 0; n < 4096; n++ {
		step()
	}
	before := ctl.Module().Stats()
	if avg := testing.AllocsPerRun(200, step); avg != 0 {
		t.Errorf("steady-state idle refresh-wake allocates %.1f allocs/op, want 0", avg)
	}
	after := ctl.Module().Stats()
	// AllocsPerRun makes one warm-up call plus 200 measured ones; each
	// refresh must have re-entered power-down twice (fast, then slow).
	if refs, pdn := after.RefreshOps-before.RefreshOps, after.PowerDownEntries-before.PowerDownEntries; refs < 200 || pdn < 2*refs {
		t.Errorf("%d refreshes drove %d power-down entries; want >= 200 refreshes, 2 entries each", refs, pdn)
	}
}

// The Table 2 3D cache's tag store is one flat pointer-free slice, so
// building it is a handful of allocations rather than one per set (it was
// 1,048,580 with per-set slices).
func TestNewDRAMCacheAllocBudget(t *testing.T) {
	cfg := config.Table2_3DCache()
	if avg := testing.AllocsPerRun(3, func() { cache.NewDRAMCache(cfg) }); avg > 4 {
		t.Errorf("NewDRAMCache(Table2_3DCache) makes %.0f allocs, want <= 4", avg)
	}
}

func TestDRAMCacheAccessSteadyStateAllocFree(t *testing.T) {
	cfg := config.Table2_3DCache()
	d := cache.NewDRAMCache(cfg)
	var now sim.Time
	var addr uint64
	// Writes striding past the cache size: once warm, every access is a
	// miss with a dirty victim, the longest result the cache returns.
	access := func() {
		now++
		addr += uint64(cfg.SizeBytes) + uint64(cfg.LineBytes)
		d.Access(now, addr, true)
	}
	for n := 0; n < 4096; n++ {
		access()
	}
	if avg := testing.AllocsPerRun(200, access); avg != 0 {
		t.Errorf("steady-state DRAMCache.Access allocates %.1f allocs/op, want 0", avg)
	}
}

func TestHierarchyAccessSteadyStateAllocFree(t *testing.T) {
	h := cache.NewHierarchy(
		config.CacheConfig{Name: "l1", SizeBytes: 32 << 10, LineBytes: 64, Ways: 4, WriteBack: true},
		config.Table1L2(),
	)
	var now sim.Time
	var i uint64
	// Writes over a 4 MB working set: once both levels hold only dirty
	// lines, every access misses L1 and L2 with a dirty victim at each, so
	// the cascade reaches its widest (four requests to DRAM).
	access := func() {
		now++
		i++
		h.Access(now, (i*64)%(4<<20), true)
	}
	for n := 0; n < 1<<17; n++ {
		access()
	}
	if avg := testing.AllocsPerRun(200, access); avg != 0 {
		t.Errorf("steady-state Hierarchy.Access allocates %.1f allocs/op, want 0", avg)
	}
}
