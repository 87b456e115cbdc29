package harness

import (
	"context"
	"fmt"
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

// TotalTicksExhaustive returns execution plus exhaustive counting ticks.
func (r *PerpLEResult) TotalTicksExhaustive() int64 { return r.ExecTicks + r.ExhCountTicks }

// TotalTicksHeuristic returns execution plus heuristic counting ticks.
func (r *PerpLEResult) TotalTicksHeuristic() int64 { return r.ExecTicks + r.HeurCountTicks }

// RunPerpLE executes n synchronization-free iterations of the perpetual
// test on the simulated machine and applies the selected outcome
// counters. Cancelling ctx aborts the execution and the counters with
// the context's error.
//
// It is Workspace.RunPerpLE on a fresh Workspace, so the result —
// including Bufs under KeepBufs — owns its memory.
func RunPerpLE(ctx context.Context, pt *core.PerpetualTest, counter *core.Counter, n int, opts PerpLEOptions, cfg sim.Config) (*PerpLEResult, error) {
	return new(Workspace).RunPerpLE(ctx, pt, counter, n, opts, cfg)
}

// runPerpLE is one PerpLE run on the workspace's bound runner and
// counter, into the workspace's result. The result's Bufs and Trace
// alias the runner.
func (ws *Workspace) runPerpLE(ctx context.Context, n int, opts PerpLEOptions, cfg sim.Config) (*PerpLEResult, error) {
	start := time.Now() //perple:allow nodeterminism wall-clock telemetry; never feeds results
	simRes, err := ws.perp.RunCtx(ctx, n, cfg)
	if err != nil {
		return nil, err
	}
	res := &ws.perpOut
	*res = PerpLEResult{
		N:         n,
		ExecTicks: simRes.Ticks,
		WallExec:  time.Since(start), //perple:allow nodeterminism wall-clock telemetry; never feeds results
		Trace:     simRes.Trace,
	}
	counter := ws.counter

	if opts.Exhaustive {
		bs := simRes.Bufs
		res.ExhaustiveN = n
		if opts.ExhaustiveCap > 0 && opts.ExhaustiveCap < n {
			res.ExhaustiveN = opts.ExhaustiveCap
			bs = truncateInto(&ws.trunc, simRes.Bufs, opts.ExhaustiveCap)
		}
		t0 := time.Now() //perple:allow nodeterminism wall-clock telemetry; never feeds results
		// Auto-select the factorized counter when the outcome set is
		// product-form, else the odometer (which polls ctx). Tallies are
		// identical either way.
		cr, err := counter.CountExhaustiveAuto(ctx, bs)
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
		cr, err := counter.CountHeuristic(ctx, simRes.Bufs)
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

// truncateInto points dst at the first n (< bs.N) iterations of a run's
// buffers.
func truncateInto(dst *core.BufSet, bs *core.BufSet, n int) *core.BufSet {
	dst.N = n
	dst.Bufs = append(dst.Bufs[:0], bs.Bufs...)
	for t, b := range dst.Bufs {
		if b != nil {
			dst.Bufs[t] = b[:len(b)/bs.N*n]
		}
	}
	return dst
}
