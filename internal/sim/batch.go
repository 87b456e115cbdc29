package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// BatchShard is one worker's slice of a batched synced run.
type BatchShard struct {
	// Worker is the worker index, 0-based.
	Worker int
	// Seed is the worker's derived RNG seed (WorkerSeed of the run seed).
	Seed int64
	// Offset is the global index of the shard's first iteration.
	Offset int
	// N is the shard's iteration count.
	N int
	// Res is the shard's run result. It is owned by the shard's private
	// Runner, so it stays valid after the batch returns.
	Res *SyncedResult
}

// WorkerSeed derives worker w's deterministic RNG substream seed from a
// run seed: seed ⊕ w. Worker 0 keeps the caller's seed, so a one-worker
// batch reproduces the serial run bit for bit; distinct workers get
// distinct deterministic streams. XOR only perturbs the low bits for
// small worker ids, but math/rand's seeding scramble decorrelates
// neighbouring seeds, and the campaign layer's shard seeds are already
// FNV-spread, so substreams never collide within a run.
func WorkerSeed(seed int64, worker int) int64 { return seed ^ int64(worker) }

// RunSyncedBatchCtx splits an n-iteration synced run across a pool of
// per-worker machines sharing the CompiledTest read-only: worker w runs
// iterations [n·w/k, n·(w+1)/k) on its own Runner seeded with
// WorkerSeed(cfg.Seed, w). Per-shard results are deterministic
// functions of (test, shard size, mode, cfg, worker), independent of
// scheduling; only which iterations land in which shard is a
// partitioning choice. workers ≤ 0 selects GOMAXPROCS; workers is
// clamped to n. A one-worker batch is bit-identical to a serial run,
// and a k-worker batch is equivalent to k independent serial runs with
// the derived seeds — the same model as campaign sharding, one level
// down.
func (ct *CompiledTest) RunSyncedBatchCtx(ctx context.Context, n int, mode Mode, cfg Config, workers int) ([]BatchShard, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("sim: negative iteration count %d", n)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	shards := make([]BatchShard, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := n*w/workers, n*(w+1)/workers
		shards[w] = BatchShard{Worker: w, Seed: WorkerSeed(cfg.Seed, w), Offset: lo, N: hi - lo}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res, err := NewRunner(ct).RunSyncedCtx(ctx, shards[w].N, mode, cfg.WithSeed(shards[w].Seed))
			shards[w].Res, errs[w] = res, err
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sim: batch worker %d: %w", w, err)
		}
	}
	return shards, nil
}
