package main

import (
	"fmt"

	"smartrefresh/internal/config"
	"smartrefresh/internal/experiment"
	"smartrefresh/internal/sim"
	"smartrefresh/internal/trace"
	"smartrefresh/internal/workload"
)

// benchWorkload is one closed batch job: a configuration, a profile's
// deterministic record stream and a policy, run for a fixed simulated
// window. Each one is chosen to load a different layer; see README.md.
type benchWorkload struct {
	name   string
	cfg    config.DRAM
	prof   workload.Profile
	policy experiment.PolicyKind
	opts   experiment.RunOptions
	// fingerprint is check.Fingerprint of the engine's RunResult at the
	// profile's default seed (--seed 0), recorded from experiment.Run.
	fingerprint string
}

func mustProfile(name string) workload.Profile {
	p, err := workload.ByName(name)
	if err != nil {
		panic(err)
	}
	return p
}

// ladderFull is the ladder-full point of experiment.PowerStatePolicies:
// every power-down rung armed, self-refresh after 200 us.
func ladderFull() experiment.PowerStatePolicy {
	pols := experiment.PowerStatePolicies()
	p := pols[len(pols)-1]
	if p.Name != "ladder-full" {
		panic(fmt.Sprintf("perfbench: last power-state policy is %q, want ladder-full", p.Name))
	}
	return p
}

func workloads() []benchWorkload {
	const ms = sim.Millisecond
	ladder := ladderFull()
	return []benchWorkload{
		{
			name:   "conv2gb-gcc-smart",
			cfg:    config.Table1_2GB(),
			prof:   mustProfile("gcc"),
			policy: experiment.PolicySmart,
			opts:   experiment.RunOptions{Warmup: 64 * ms, Measure: 256 * ms, Shards: 1},

			fingerprint: "82e078bf86e8be7fbe93a261bd3b5903f51d8f433e69d593692a677c29cf3959",
		},
		{
			name:   "idle-os-ladder",
			cfg:    config.Table1_2GB(),
			prof:   workload.Idle(),
			policy: experiment.PolicySmart,
			opts: experiment.RunOptions{Warmup: 64 * ms, Measure: 1024 * ms, Shards: 1,
				SelfRefreshAfter: ladder.SelfRefreshAfter, PowerStates: ladder.Cfg},

			fingerprint: "5a950f2ab0111dc0ef083b1b42308939a28f9a1ebd057100240b3e86ede6fbe9",
		},
		{
			name:   "hmc8v-radix-sharded",
			cfg:    config.HMC8Vault(),
			prof:   mustProfile("radix"),
			policy: experiment.PolicySmart,
			opts:   experiment.RunOptions{Warmup: 32 * ms, Measure: 256 * ms, Shards: 2},

			fingerprint: "8a04a3e27f84380e2c919a580a46b3d9b2504078bf2313c2b10fbecd45f29018",
		},
		{
			name:   "stacked3d32-gcc-smart",
			cfg:    config.Table2_3D32(),
			prof:   mustProfile("gcc"),
			policy: experiment.PolicySmart,
			opts:   experiment.RunOptions{Warmup: 32 * ms, Measure: 256 * ms, Shards: 1, Stacked: true},

			fingerprint: "c3137406c4399348b5006ed655569cb44c8d8170583e416c319a1e24cf50c603",
		},
	}
}

func findWorkload(name string) (benchWorkload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// streamSeed maps the benchmark's --seed onto the generator seed. Seed 0
// is the profile's own seed, so a seed-0 run is bit-identical to
// experiment.Run; any other seed is mixed into it with splitmix64.
func streamSeed(prof workload.Profile, seed uint64) uint64 {
	if seed == 0 {
		return prof.Seed()
	}
	z := prof.Seed() ^ (seed * 0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// newSource builds the profile's record stream from an explicit seed, the
// way workload.Profile.NewSource does from the profile's own seed.
func newSource(prof workload.Profile, stacked bool, seed uint64) trace.Source {
	if !stacked {
		return workload.NewGenerator(prof.MainSpec(), seed)
	}
	fast, slow := prof.StackedSpecs()
	fastGen := workload.NewGenerator(fast, seed)
	if slow.FootprintBytes <= 0 {
		return fastGen
	}
	slowGen := workload.NewOffset(workload.NewGenerator(slow, seed^0x9e3779b97f4a7c15), uint64(fast.FootprintBytes))
	return workload.NewMerge(fastGen, slowGen)
}
