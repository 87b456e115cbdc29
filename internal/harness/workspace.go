package harness

import (
	"context"
	"fmt"
	"time"

	"perple/internal/core"
	"perple/internal/litmus"
	"perple/internal/sim"
)

// Workspace is one executor's run state, kept across runs so repeated
// runs allocate in proportion to the executor, not to the runs:
//
//   - a run of the same test (and counter) as the last reuses its
//     compiled test and its one Litmus7Runner (sim machine, interned
//     histogram, trace checker, witness buffers) or its one
//     PerpetualRunner and buf arrays;
//   - a run of another test re-points those same backing arrays (memory
//     cells, register files, store-buffer rings, witness arrays, buf
//     arrays and the counter's factorized scratch, which a new counter
//     takes over from the previous one) instead of allocating new ones.
//
// A run split into k substreams (Litmus7Options.Workers,
// PerpLEOptions.Workers) runs them one after another on that one runner
// and counter, folding each substream's result into a workspace-owned
// accumulator before the next substream reuses the runner's memory.
//
// Results are identical to a fresh Workspace's for equal arguments, but
// they alias the Workspace and are valid only until its next run. The
// free functions RunLitmus7 and RunPerpLE run on a fresh Workspace, so
// their results belong to the caller. A Workspace is not safe for
// concurrent use, and neither is a counter passed to it.
type Workspace struct {
	// ct is the compiled test the litmus7 runner is bound to (nil when
	// none is, or after a failed switch); bare records that it was built
	// with no extra outcomes, the only case a later run reuses.
	ct     *sim.CompiledTest
	bare   bool
	l7     *Litmus7Runner
	merged *outcomeHist // substream histogram accumulator, shaped for ct
	l7out  Litmus7Result

	cp      *sim.CompiledPerpetual // nil when none is bound
	perp    *sim.PerpetualRunner
	counter *core.Counter // the last run's counter, holding the factorized scratch
	trunc   core.BufSet   // capped-count view of the runner's buffers
	perpOut PerpLEResult
}

// substream returns the iteration count and config of substream w of a
// k-way split n-iteration run: iterations [n·w/k, n·(w+1)/k), seeded
// sim.WorkerSeed(cfg.Seed, w).
func substream(w, k, n int, cfg sim.Config) (int, sim.Config) {
	return n*(w+1)/k - n*w/k, cfg.WithSeed(sim.WorkerSeed(cfg.Seed, w))
}

// RunLitmus7 is the package-level RunLitmus7 on this workspace's
// runner; see Workspace for what it reuses and how long the result
// stays valid.
func (ws *Workspace) RunLitmus7(ctx context.Context, t *litmus.Test, n int, mode sim.Mode, outcomes []litmus.Outcome, cfg sim.Config, opts Litmus7Options) (*Litmus7Result, error) {
	start := time.Now() //perple:allow nodeterminism wall-clock telemetry; never feeds results
	lr, err := ws.litmus7Runner(t, outcomes, opts.TraceVerify)
	if err != nil {
		return nil, err
	}
	k := min(opts.Workers, n)
	if k <= 1 {
		return lr.RunCtx(ctx, n, mode, cfg)
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
		TraceReports:  out.TraceReports[:0],
	}
	if ws.merged == nil {
		ws.merged = newOutcomeHist(ws.ct.RegCounts())
	}
	ws.merged.resetCounts()
	reportCap := opts.TraceVerify.reports()
	for w := 0; w < k; w++ {
		sn, scfg := substream(w, k, n, cfg)
		r, err := lr.RunCtx(ctx, sn, mode, scfg)
		if err != nil {
			return nil, fmt.Errorf("harness: substream %d: %w", w, err)
		}
		// Fold r now: the next substream overwrites the runner's result,
		// histogram and report slots.
		if w == 0 {
			out.Trace = r.Trace
		}
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
		ws.merged.merge(lr.hist)
	}
	ws.merged.materializeInto(out.Histogram)
	out.Wall = time.Since(start) //perple:allow nodeterminism wall-clock telemetry; never feeds results
	return out, nil
}

// litmus7Runner returns the runner bound to t with trace verification
// tv, compiling t and retargeting the kept runner only when the last
// run bound another test or either run passed extra outcomes.
func (ws *Workspace) litmus7Runner(t *litmus.Test, outcomes []litmus.Outcome, tv TraceVerify) (*Litmus7Runner, error) {
	if ws.ct == nil || ws.ct.Test() != t || !ws.bare || len(outcomes) > 0 {
		ws.ct = nil
		ct, err := sim.Compile(t)
		if err != nil {
			return nil, err
		}
		if ws.l7 == nil {
			if ws.l7, err = NewLitmus7Runner(ct, outcomes); err != nil {
				return nil, err
			}
		} else if err := ws.l7.retarget(ct, outcomes); err != nil {
			return nil, err
		}
		if ws.merged != nil {
			ws.merged.retarget(ct.RegCounts())
		}
		ws.ct, ws.bare = ct, len(outcomes) == 0
	}
	if ws.l7.tv != tv {
		if err := ws.l7.SetTraceVerify(tv); err != nil {
			return nil, err
		}
	}
	return ws.l7, nil
}

// RunPerpLE is the package-level RunPerpLE on this workspace's runner
// and buffers; see Workspace for what it reuses and how long the result
// (Bufs included) stays valid. A counter other than the last run's
// takes over the last one's factorized scratch.
func (ws *Workspace) RunPerpLE(ctx context.Context, pt *core.PerpetualTest, counter *core.Counter, n int, opts PerpLEOptions, cfg sim.Config) (*PerpLEResult, error) {
	if !opts.Exhaustive && !opts.Heuristic && !opts.KeepBufs {
		return nil, fmt.Errorf("harness: PerpLE run requests no counter and no buffers; nothing to do")
	}
	k := max(min(opts.Workers, n), 1)
	if k > 1 && opts.KeepBufs {
		return nil, fmt.Errorf("harness: KeepBufs is incompatible with a PerpLE run split into %d substreams", k)
	}
	if ws.cp == nil || ws.cp.Test() != pt {
		ws.cp = nil
		cp, err := sim.CompilePerpetual(pt)
		if err != nil {
			return nil, err
		}
		if ws.perp == nil {
			ws.perp = sim.NewPerpetualRunner(cp)
		} else {
			ws.perp.Retarget(cp)
		}
		ws.cp = cp
	}
	if counter != ws.counter {
		counter.TakeScratch(ws.counter)
		ws.counter = counter
	}
	out := &ws.perpOut
	for w := 0; w < k; w++ {
		sn, scfg := substream(w, k, n, cfg)
		r, err := ws.runPerpLE(ctx, sn, opts, scfg)
		if err != nil {
			if k > 1 {
				err = fmt.Errorf("harness: substream %d: %w", w, err)
			}
			return nil, err
		}
		// Fold r before the next substream reuses the runner: Merge drops
		// r.Bufs, which alias the runner's buffers.
		if w == 0 {
			*out = r
		} else if err := out.Merge(&r); err != nil {
			return nil, err
		}
	}
	return out, nil
}
