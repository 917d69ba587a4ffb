package sim

import (
	"reflect"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestShardRunnerCoversAllShards(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		n := 37
		var hits [37]atomic.Int64
		ShardRunner{Workers: workers}.Run(n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: shard %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestShardRunnerZeroShards(t *testing.T) {
	ran := false
	ShardRunner{}.Run(0, func(int) { ran = true })
	ShardRunner{}.Run(-3, func(int) { ran = true })
	if ran {
		t.Fatal("shard function ran for n <= 0")
	}
}

// shardedDraws runs nShards independent shards under the given worker
// count: each shard draws from its own RNG, forked in shard order before
// the run, into its own output slot.
func shardedDraws(seed uint64, nShards, workers int) [][]uint64 {
	root := NewRNG(seed)
	rngs := make([]*RNG, nShards)
	for i := range rngs {
		rngs[i] = root.Fork()
	}
	out := make([][]uint64, nShards)
	ShardRunner{Workers: workers}.Run(nShards, func(shard int) {
		rng := rngs[shard]
		n := 1 + rng.Intn(50)
		for i := 0; i < n; i++ {
			out[shard] = append(out[shard], rng.Uint64())
		}
	})
	return out
}

// Property (the determinism keystone): per-shard outputs are a pure
// function of the seed, independent of how many workers ran the shards.
func TestShardOutputsIndependentOfWorkerCount(t *testing.T) {
	f := func(rawSeed uint16) bool {
		seed := uint64(rawSeed) + 1
		ref := shardedDraws(seed, 8, 1)
		for _, workers := range []int{2, 3, 8} {
			if !reflect.DeepEqual(ref, shardedDraws(seed, 8, workers)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
