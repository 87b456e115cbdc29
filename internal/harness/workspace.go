package harness

import (
	"context"
	"fmt"

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
// Results are identical to a fresh Workspace's for equal arguments, but
// they alias the Workspace and are valid only until its next run. The
// free functions RunLitmus7 and RunPerpLE run on a fresh Workspace, so
// their results belong to the caller. A Workspace is not safe for
// concurrent use, and neither is a counter passed to it.
type Workspace struct {
	// ct is the compiled test the litmus7 runner is bound to (nil when
	// none is, or after a failed switch); bare records that it was built
	// with no extra outcomes, the only case a later run reuses.
	ct   *sim.CompiledTest
	bare bool
	l7   *Litmus7Runner

	cp      *sim.CompiledPerpetual // nil when none is bound
	perp    *sim.PerpetualRunner
	counter *core.Counter // the last run's counter, holding the factorized scratch
	trunc   core.BufSet   // capped-count view of the runner's buffers
	perpOut PerpLEResult
}

// RunLitmus7 is the package-level RunLitmus7 on this workspace's
// runner; see Workspace for what it reuses and how long the result
// stays valid.
func (ws *Workspace) RunLitmus7(ctx context.Context, t *litmus.Test, n int, mode sim.Mode, outcomes []litmus.Outcome, cfg sim.Config, opts Litmus7Options) (*Litmus7Result, error) {
	lr, err := ws.litmus7Runner(t, outcomes, opts.TraceVerify)
	if err != nil {
		return nil, err
	}
	return lr.RunCtx(ctx, n, mode, cfg)
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
	return ws.runPerpLE(ctx, n, opts, cfg)
}
