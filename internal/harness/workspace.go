package harness

import (
	"context"
	"fmt"
	"sync"
	"time"

	"perple/internal/core"
	"perple/internal/litmus"
	"perple/internal/sim"
)

// Workspace is one executor's run state, kept across runs so repeated
// runs allocate in proportion to the executor, not to the runs:
//
//   - a run of the same test (and counter) as the last reuses its
//     compiled test, its Litmus7Runners (one per worker: sim machine,
//     interned histogram, trace checker, witness buffers) or its
//     PerpetualRunners, counters and buf arrays;
//   - a run of another test re-points those same backing arrays (memory
//     cells, register files, store-buffer rings, witness arrays, buf
//     arrays and the counter's factorized scratch, which a new counter
//     takes over from the previous one) instead of allocating new ones.
//
// Results are identical to a fresh Workspace's for equal arguments, but
// they alias the Workspace and are valid only until its next run. The
// free functions RunLitmus7 and RunPerpLE run on a fresh Workspace, so
// their results belong to the caller. A Workspace is not safe for
// concurrent use, and neither is a counter passed to it.
type Workspace struct {
	// ct is the compiled test the litmus7 runners are bound to (nil when
	// none is, or after a failed switch); bare records that they were
	// built with no extra outcomes, the only case a later run reuses.
	ct     *sim.CompiledTest
	bare   bool
	l7     []*Litmus7Runner
	merged *outcomeHist // multi-worker merge interner, shaped for ct
	l7out  Litmus7Result

	cp   *sim.CompiledPerpetual // nil when none is bound
	perp []*perpWorker
}

// RunLitmus7 is the package-level RunLitmus7 on this workspace's
// runners; see Workspace for what it reuses and how long the result
// stays valid.
func (ws *Workspace) RunLitmus7(ctx context.Context, t *litmus.Test, n int, mode sim.Mode, outcomes []litmus.Outcome, cfg sim.Config, opts Litmus7Options) (*Litmus7Result, error) {
	start := time.Now() //perple:allow nodeterminism wall-clock telemetry; never feeds results
	workers := min(opts.Workers, n)
	runners, err := ws.litmus7Runners(t, outcomes, max(workers, 1), opts.TraceVerify)
	if err != nil {
		return nil, err
	}
	if workers <= 1 {
		return runners[0].RunCtx(ctx, n, mode, cfg)
	}
	results, err := fanOut(workers, n, func(w, n int) (*Litmus7Result, error) {
		return runners[w].RunCtx(ctx, n, mode, cfg.WithSeed(sim.WorkerSeed(cfg.Seed, w)))
	})
	if err != nil {
		return nil, err
	}

	out := &ws.l7out
	hist := out.Histogram
	if hist == nil {
		hist = map[string]int64{}
	}
	clear(hist)
	*out = Litmus7Result{
		Test:          t,
		Mode:          mode,
		N:             n,
		Histogram:     hist,
		OutcomeCounts: zeroedCounts(out.OutcomeCounts, len(outcomes)),
		Trace:         results[0].Trace,
		TraceReports:  out.TraceReports[:0],
	}
	if ws.merged == nil {
		ws.merged = newOutcomeHist(ws.ct.RegCounts())
	}
	ws.merged.resetCounts()
	reportCap := opts.TraceVerify.reports()
	for w, r := range results {
		out.TargetCount += r.TargetCount
		out.Ticks += r.Ticks
		for i, v := range r.OutcomeCounts {
			out.OutcomeCounts[i] += v
		}
		out.TracesVerified += r.TracesVerified
		out.TraceViolations += r.TraceViolations
		out.TraceVerifyNs += r.TraceVerifyNs
		for _, rep := range r.TraceReports {
			if len(out.TraceReports) < reportCap {
				out.TraceReports = append(out.TraceReports, rep)
			}
		}
		ws.merged.merge(runners[w].hist)
	}
	ws.merged.materializeInto(out.Histogram)
	out.Wall = time.Since(start) //perple:allow nodeterminism wall-clock telemetry; never feeds results
	return out, nil
}

// litmus7Runners returns k runners bound to t with trace verification
// tv, compiling t and retargeting the kept runners only when the last
// run bound another test or either run passed extra outcomes.
func (ws *Workspace) litmus7Runners(t *litmus.Test, outcomes []litmus.Outcome, k int, tv TraceVerify) ([]*Litmus7Runner, error) {
	if ws.ct == nil || ws.ct.Test() != t || !ws.bare || len(outcomes) > 0 {
		ws.ct = nil
		ct, err := sim.Compile(t)
		if err != nil {
			return nil, err
		}
		for _, lr := range ws.l7 {
			if err := lr.retarget(ct, outcomes); err != nil {
				return nil, err
			}
		}
		if ws.merged != nil {
			ws.merged.retarget(ct.RegCounts())
		}
		ws.ct, ws.bare = ct, len(outcomes) == 0
	}
	for len(ws.l7) < k {
		lr, err := NewLitmus7Runner(ws.ct, outcomes)
		if err != nil {
			return nil, err
		}
		ws.l7 = append(ws.l7, lr)
	}
	for _, lr := range ws.l7[:k] {
		if lr.tv != tv {
			if err := lr.SetTraceVerify(tv); err != nil {
				return nil, err
			}
		}
	}
	return ws.l7[:k], nil
}

// RunPerpLE is the package-level RunPerpLE on this workspace's runners,
// counters and buffers; see Workspace for what it reuses and how long
// the result (Bufs included) stays valid. A counter other than the last
// run's takes over the last one's factorized scratch.
func (ws *Workspace) RunPerpLE(ctx context.Context, pt *core.PerpetualTest, counter *core.Counter, n int, opts PerpLEOptions, cfg sim.Config) (*PerpLEResult, error) {
	if !opts.Exhaustive && !opts.Heuristic && !opts.KeepBufs {
		return nil, fmt.Errorf("harness: PerpLE run requests no counter and no buffers; nothing to do")
	}
	if ws.cp == nil || ws.cp.Test() != pt {
		ws.cp = nil
		cp, err := sim.CompilePerpetual(pt)
		if err != nil {
			return nil, err
		}
		for _, pw := range ws.perp {
			pw.runner.Retarget(cp)
		}
		ws.cp = cp
	}
	workers := min(opts.Workers, n)
	if workers > 1 && opts.KeepBufs {
		return nil, fmt.Errorf("harness: KeepBufs is incompatible with batched PerpLE runs (workers=%d)", workers)
	}
	pws := ws.perpWorkers(counter, max(workers, 1))
	if workers <= 1 {
		return pws[0].run(ctx, n, opts, cfg)
	}
	results, err := fanOut(workers, n, func(w, n int) (*PerpLEResult, error) {
		return pws[w].run(ctx, n, opts, cfg.WithSeed(sim.WorkerSeed(cfg.Seed, w)))
	})
	if err != nil {
		return nil, err
	}
	out := results[0]
	for _, r := range results[1:] {
		if err := out.Merge(r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// perpWorkers returns k workers bound to the current perpetual test
// and to counter: worker 0 counts with counter itself, the others with
// clones, each taking over the scratch of the counter it had before.
func (ws *Workspace) perpWorkers(counter *core.Counter, k int) []*perpWorker {
	for len(ws.perp) < k {
		ws.perp = append(ws.perp, &perpWorker{runner: sim.NewPerpetualRunner(ws.cp)})
	}
	for w, pw := range ws.perp[:k] {
		if pw.base == counter {
			continue
		}
		next := counter
		if w > 0 {
			next = counter.Clone()
		}
		next.TakeScratch(pw.counter)
		pw.base, pw.counter = counter, next
	}
	return ws.perp[:k]
}

// fanOut runs fn on k goroutines, worker w over the n·w/k to n·(w+1)/k
// slice of an n-iteration run, and returns the results in worker order,
// or the lowest-numbered worker's error.
func fanOut[R any](k, n int, fn func(w, n int) (R, error)) ([]R, error) {
	results := make([]R, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for w := 0; w < k; w++ {
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			results[w], errs[w] = fn(w, n)
		}(w, n*(w+1)/k-n*w/k)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("harness: batch worker %d: %w", w, err)
		}
	}
	return results, nil
}
