package harness

import (
	"context"
	"fmt"
	"sync"
	"time"

	"perple/internal/core"
	"perple/internal/sim"
)

// PerpLEOptions selects which outcome counters a PerpLE run applies.
type PerpLEOptions struct {
	// Exhaustive applies COUNT (Algorithm 1, N^TL frames).
	Exhaustive bool
	// Heuristic applies COUNTH (Algorithm 2, N frames).
	Heuristic bool
	// KeepBufs retains the raw buf arrays on the result (for skew
	// analysis or re-counting).
	KeepBufs bool
	// ExhaustiveCap, when positive, limits the iterations the exhaustive
	// counter examines (the run still executes all N). It bounds the
	// N^TL blowup for the TL=3 tests in large experiments; 0 means no
	// cap. Capping is reported via ExhaustiveN.
	ExhaustiveCap int
	// CountWorkers fans the counting phase out over worker goroutines
	// (core.CountExhaustiveParallel / core.CountHeuristicParallel),
	// leaving the counts identical. ≤ 1 counts on the calling goroutine.
	CountWorkers int
	// Workers splits the run: worker w executes iterations
	// [n·w/k, n·(w+1)/k) as an independent perpetual run seeded with
	// sim.WorkerSeed(cfg.Seed, w), counts its own buffers with a private
	// Counter clone, and the per-worker results are merged in worker
	// order via PerpLEResult.Merge (wall times sum across workers).
	// Workers is clamped to n; ≤ 1 runs on the calling goroutine.
	// KeepBufs requires a serial run, and ExhaustiveCap applies per
	// worker shard.
	Workers int
}

// PerpLEResult is the outcome of a PerpLE run: execution plus counting,
// with the two phases' costs reported separately and combined, in both
// simulated ticks (execution) / modelled ticks (counting: frames × the
// configured per-frame cost) and host wall time.
type PerpLEResult struct {
	N int

	// Exhaustive and Heuristic are the counter results; nil when the
	// corresponding option was off.
	Exhaustive *core.CountResult
	Heuristic  *core.CountResult

	// ExhaustiveN is the iteration count the exhaustive counter actually
	// examined (min(N, ExhaustiveCap)).
	ExhaustiveN int

	// ExecTicks is the simulated test-execution time; ExhCountTicks and
	// HeurCountTicks are the modelled counting times. A tool's total
	// runtime is ExecTicks plus its counter's ticks, matching the paper's
	// "runtimes include both test execution and outcome counting".
	ExecTicks      int64
	ExhCountTicks  int64
	HeurCountTicks int64

	// Wall splits measured host time the same way.
	WallExec time.Duration
	WallExh  time.Duration
	WallHeur time.Duration

	// Bufs is the raw run data when KeepBufs was set.
	Bufs *core.BufSet

	// Trace holds the machine-event trace when Config.TraceSize > 0.
	Trace *sim.Trace
}

// Merge folds another shard's PerpLE result into r: iteration counts,
// counter tallies (via core.CountResult.Merge), and both time accounts
// are summed. Both results must have run the same counters (Exhaustive /
// Heuristic both present or both absent). Merging is commutative and
// associative over shards. Raw buffers are dropped (a concatenated buf
// array would misindex iterations) and traces are not merged.
func (r *PerpLEResult) Merge(o *PerpLEResult) error {
	if (r.Exhaustive == nil) != (o.Exhaustive == nil) {
		return fmt.Errorf("harness: cannot merge PerpLE results: exhaustive counter presence differs")
	}
	if (r.Heuristic == nil) != (o.Heuristic == nil) {
		return fmt.Errorf("harness: cannot merge PerpLE results: heuristic counter presence differs")
	}
	if r.Exhaustive != nil {
		if err := r.Exhaustive.Merge(o.Exhaustive); err != nil {
			return fmt.Errorf("harness: merging exhaustive counts: %w", err)
		}
	}
	if r.Heuristic != nil {
		if err := r.Heuristic.Merge(o.Heuristic); err != nil {
			return fmt.Errorf("harness: merging heuristic counts: %w", err)
		}
	}
	r.N += o.N
	r.ExhaustiveN += o.ExhaustiveN
	r.ExecTicks += o.ExecTicks
	r.ExhCountTicks += o.ExhCountTicks
	r.HeurCountTicks += o.HeurCountTicks
	r.WallExec += o.WallExec
	r.WallExh += o.WallExh
	r.WallHeur += o.WallHeur
	r.Bufs = nil
	return nil
}

// TotalTicksExhaustive returns execution plus exhaustive counting ticks.
func (r *PerpLEResult) TotalTicksExhaustive() int64 { return r.ExecTicks + r.ExhCountTicks }

// TotalTicksHeuristic returns execution plus heuristic counting ticks.
func (r *PerpLEResult) TotalTicksHeuristic() int64 { return r.ExecTicks + r.HeurCountTicks }

// RunPerpLE executes n synchronization-free iterations of the perpetual
// test on the simulated machine and applies the selected outcome
// counters. Cancelling ctx aborts the execution and the counters with
// the context's error.
func RunPerpLE(ctx context.Context, pt *core.PerpetualTest, counter *core.Counter, n int, opts PerpLEOptions, cfg sim.Config) (*PerpLEResult, error) {
	if !opts.Exhaustive && !opts.Heuristic && !opts.KeepBufs {
		return nil, fmt.Errorf("harness: PerpLE run requests no counter and no buffers; nothing to do")
	}
	cp, err := sim.CompilePerpetual(pt)
	if err != nil {
		return nil, err
	}
	workers := min(opts.Workers, n)
	if workers <= 1 {
		return runPerpLE(ctx, cp, counter, n, opts, cfg)
	}
	if opts.KeepBufs {
		return nil, fmt.Errorf("harness: KeepBufs is incompatible with batched PerpLE runs (workers=%d)", workers)
	}
	results := make([]*PerpLEResult, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := n*w/workers, n*(w+1)/workers
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			results[w], errs[w] = runPerpLE(ctx, cp, counter.Clone(), n, opts, cfg.WithSeed(sim.WorkerSeed(cfg.Seed, w)))
		}(w, hi-lo)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("harness: batch worker %d: %w", w, err)
		}
	}
	out := results[0]
	for _, r := range results[1:] {
		if err := out.Merge(r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runPerpLE is one serial PerpLE run on a fresh perpetual runner.
func runPerpLE(ctx context.Context, cp *sim.CompiledPerpetual, counter *core.Counter, n int, opts PerpLEOptions, cfg sim.Config) (*PerpLEResult, error) {
	start := time.Now() //perple:allow nodeterminism wall-clock telemetry; never feeds results
	simRes, err := sim.NewPerpetualRunner(cp).RunCtx(ctx, n, cfg)
	if err != nil {
		return nil, err
	}
	res := &PerpLEResult{
		N:         n,
		ExecTicks: simRes.Ticks,
		WallExec:  time.Since(start), //perple:allow nodeterminism wall-clock telemetry; never feeds results
		Trace:     simRes.Trace,
	}

	if opts.Exhaustive {
		bs := simRes.Bufs
		res.ExhaustiveN = n
		if opts.ExhaustiveCap > 0 && opts.ExhaustiveCap < n {
			res.ExhaustiveN = opts.ExhaustiveCap
			bs = truncateBufs(cp.Test(), simRes.Bufs, opts.ExhaustiveCap)
		}
		t0 := time.Now() //perple:allow nodeterminism wall-clock telemetry; never feeds results
		// Auto-select the factorized counter when the outcome set is
		// product-form, else the parallel odometer (whose slab walk polls
		// ctx). Tallies are identical either way.
		cr, err := counter.CountExhaustiveAuto(ctx, bs, max(1, opts.CountWorkers))
		if err != nil {
			return nil, err
		}
		res.Exhaustive = cr
		res.WallExh = time.Since(t0) //perple:allow nodeterminism wall-clock telemetry; never feeds results
		res.ExhCountTicks = int64(float64(cr.Frames) * cfg.ExhFrameTick * float64(len(counter.Outcomes())))
	}
	if opts.Heuristic {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("harness: heuristic count aborted: %w", err)
		}
		t0 := time.Now() //perple:allow nodeterminism wall-clock telemetry; never feeds results
		cr, err := counter.CountHeuristicParallel(ctx, simRes.Bufs, max(1, opts.CountWorkers))
		if err != nil {
			return nil, err
		}
		res.Heuristic = cr
		res.WallHeur = time.Since(t0) //perple:allow nodeterminism wall-clock telemetry; never feeds results
		res.HeurCountTicks = int64(float64(cr.Frames) * cfg.HeurFrameTick * float64(len(counter.Outcomes())))
	}
	if opts.KeepBufs {
		res.Bufs = simRes.Bufs
	}
	return res, nil
}

// truncateBufs views the first n iterations of a run.
func truncateBufs(pt *core.PerpetualTest, bs *core.BufSet, n int) *core.BufSet {
	out := &core.BufSet{N: n, Bufs: make([][]int64, len(bs.Bufs))}
	for t, b := range bs.Bufs {
		if b != nil {
			out.Bufs[t] = b[:pt.Reads[t]*n]
		}
	}
	return out
}
