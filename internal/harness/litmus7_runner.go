package harness

import (
	"context"
	"fmt"
	"time"

	"perple/internal/litmus"
	"perple/internal/sim"
	"perple/internal/trace"
)

// Litmus7Runner executes litmus7-style runs of one compiled test on a
// reusable sim.Runner with a reusable interned histogram: outcome
// conditions are compiled once, the tally loop interns register files
// instead of rendering string keys, and the result struct (including
// the Histogram map and OutcomeCounts slice) is recycled, so repeated
// runs allocate nothing in steady state. A Litmus7Runner is not safe
// for concurrent use; concurrent executors each hold their own over the
// shared sim.CompiledTest.
//
// The returned Litmus7Result aliases the runner's state and is valid
// only until the next Run call. The package-level RunLitmus7 keeps the
// own-your-result contract by running on a fresh Workspace.
type Litmus7Runner struct {
	ct       *sim.CompiledTest
	runner   *sim.Runner
	target   compiledOutcome
	outcomes []compiledOutcome
	hist     *outcomeHist
	res      Litmus7Result

	// regOnly is set when the target and every extra outcome read only
	// registers; wordOff[t] is thread t's offset into an interned
	// histogram row. Together they let RunCtx tally conditions once per
	// distinct outcome instead of once per iteration.
	regOnly bool
	wordOff []int

	// tv/checker drive optional witness-trace verification; see
	// SetTraceVerify. checker is nil when verification is off.
	tv      TraceVerify
	checker *trace.Checker
}

// NewLitmus7Runner builds a reusable litmus7-style runner over a
// compiled test, pre-compiling the target and the optional extra
// outcomes of interest.
func NewLitmus7Runner(ct *sim.CompiledTest, outcomes []litmus.Outcome) (*Litmus7Runner, error) {
	lr := &Litmus7Runner{}
	if err := lr.retarget(ct, outcomes); err != nil {
		return nil, err
	}
	return lr, nil
}

// retarget points the runner at another compiled test and outcome list,
// keeping its sim.Runner's arrays (via sim.Runner.Retarget), the
// interner's tables and the result's histogram map. Trace verification
// stays configured, with its checker rebuilt for the new layout. On
// error the runner is unusable until a successful retarget.
func (lr *Litmus7Runner) retarget(ct *sim.CompiledTest, outcomes []litmus.Outcome) error {
	target, err := compileOutcome(ct, ct.Test().Target, lr.target.conds)
	if err != nil {
		return err
	}
	lr.ct, lr.target, lr.regOnly = ct, target, target.regOnly()
	if cap(lr.outcomes) < len(outcomes) {
		lr.outcomes = make([]compiledOutcome, len(outcomes))
	}
	lr.outcomes = lr.outcomes[:len(outcomes)]
	for i, o := range outcomes {
		if lr.outcomes[i], err = compileOutcome(ct, o, lr.outcomes[i].conds); err != nil {
			return err
		}
		lr.regOnly = lr.regOnly && lr.outcomes[i].regOnly()
	}
	if lr.runner == nil {
		lr.runner = sim.NewRunner(ct)
		lr.hist = newOutcomeHist(ct.RegCounts())
		lr.res.Histogram = map[string]int64{}
	} else {
		lr.runner.Retarget(ct)
		lr.hist.retarget(ct.RegCounts())
	}
	lr.wordOff = lr.wordOff[:0]
	off := 0
	for _, rc := range ct.RegCounts() {
		lr.wordOff = append(lr.wordOff, off)
		off += rc
	}
	lr.res.Test = ct.Test()
	lr.res.OutcomeCounts = zeroedCounts(lr.res.OutcomeCounts, len(outcomes))
	if lr.checker != nil {
		return lr.SetTraceVerify(lr.tv)
	}
	return nil
}

// zeroedCounts returns s resized to n zeroed counts, never nil.
func zeroedCounts(s []int64, n int) []int64 {
	if s == nil || cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Run executes n iterations under the given synchronization mode.
func (lr *Litmus7Runner) Run(n int, mode sim.Mode, cfg sim.Config) (*Litmus7Result, error) {
	return lr.RunCtx(context.Background(), n, mode, cfg)
}

// RunCtx is Run under a context: both the simulated run and the tally
// loop poll for cancellation and abort with the context's error instead
// of finishing the remaining iterations.
func (lr *Litmus7Runner) RunCtx(ctx context.Context, n int, mode sim.Mode, cfg sim.Config) (*Litmus7Result, error) {
	start := time.Now() //perple:allow nodeterminism wall-clock telemetry; never feeds results
	if lr.checker != nil {
		// Witness recording is a pure observer of the machine, so the
		// override cannot perturb the run (the sim determinism suite
		// asserts this).
		cfg.WitnessEvery = lr.tv.Every
	}
	simRes, err := lr.runner.RunSyncedCtx(ctx, n, mode, cfg)
	if err != nil {
		return nil, err
	}
	res := &lr.res
	res.Mode = mode
	res.N = n
	res.TargetCount = 0
	clear(res.OutcomeCounts)
	clear(res.Histogram)
	res.Ticks = simRes.Ticks
	res.Wall = 0
	res.Trace = simRes.Trace
	res.TracesVerified, res.TraceViolations, res.TraceVerifyNs = 0, 0, 0
	res.TraceReports = res.TraceReports[:0]
	if lr.checker != nil {
		if err := lr.verifyWitnesses(ctx, simRes.Witnesses, res); err != nil {
			return nil, err
		}
	}
	lr.hist.resetCounts()
	done := ctx.Done()
	for lo := 0; lo < n; lo += 4096 {
		if done != nil {
			select {
			case <-done:
				return nil, fmt.Errorf("harness: litmus7 tally aborted: %w", ctx.Err())
			default:
			}
		}
		hi := lo + 4096
		if hi > n {
			hi = n
		}
		if !lr.regOnly {
			// A memory condition depends on the iteration's memory cell,
			// which the histogram does not intern: match per iteration.
			for iter := lo; iter < hi; iter++ {
				if lr.target.match(simRes, iter) {
					res.TargetCount++
				}
				for i := range lr.outcomes {
					if lr.outcomes[i].match(simRes, iter) {
						res.OutcomeCounts[i]++
					}
				}
			}
		}
		lr.hist.observeBlock(simRes, lo, hi)
	}
	if lr.regOnly {
		// Register-only conditions are a function of the interned row, so
		// tally per distinct outcome instead of per iteration.
		for id, c := range lr.hist.counts {
			if c == 0 {
				continue
			}
			w := lr.hist.row(id)
			if lr.target.matchWords(w, lr.wordOff) {
				res.TargetCount += c
			}
			for i := range lr.outcomes {
				if lr.outcomes[i].matchWords(w, lr.wordOff) {
					res.OutcomeCounts[i] += c
				}
			}
		}
	}
	lr.hist.materializeInto(res.Histogram)
	res.Wall = time.Since(start) //perple:allow nodeterminism wall-clock telemetry; never feeds results
	return res, nil
}

// Litmus7Options configures RunLitmus7. The zero value is an
// unverified run.
type Litmus7Options struct {
	// TraceVerify records and checks witnesses at its stride; the result
	// carries the tallies plus up to MaxReports rendered reports.
	// Verification reads the simulation but never perturbs it.
	TraceVerify TraceVerify
}

// RunLitmus7 executes n iterations of the test under the given
// synchronization mode and tallies the target outcome, the optional
// extra outcomes of interest, and the full observed-outcome histogram.
// Cancelling ctx aborts the run with the context's error.
//
// It is Workspace.RunLitmus7 on a fresh Workspace, so each call
// compiles the test and builds a fresh runner and the result owns its
// memory; callers running tests repeatedly should keep a Workspace.
// Results are deterministic for fixed (test, n, mode, outcomes, cfg);
// Wall is the elapsed host time.
func RunLitmus7(ctx context.Context, t *litmus.Test, n int, mode sim.Mode, outcomes []litmus.Outcome, cfg sim.Config, opts Litmus7Options) (*Litmus7Result, error) {
	return new(Workspace).RunLitmus7(ctx, t, n, mode, outcomes, cfg, opts)
}
