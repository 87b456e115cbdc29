package harness

import (
	"context"
	"fmt"
	"sync"
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
// for concurrent use; batched runs give each worker its own over the
// shared sim.CompiledTest.
//
// The returned Litmus7Result aliases the runner's state and is valid
// only until the next Run call. The package-level RunLitmus7 keeps the
// own-your-result contract by using fresh runners per call.
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
	t := ct.Test()
	locIdx := make(map[litmus.Loc]int, len(ct.Locs()))
	for i, l := range ct.Locs() {
		locIdx[l] = i
	}
	target, err := compileOutcome(t, t.Target, ct.RegCounts(), locIdx)
	if err != nil {
		return nil, err
	}
	lr := &Litmus7Runner{
		ct:       ct,
		runner:   sim.NewRunner(ct),
		target:   target,
		outcomes: make([]compiledOutcome, len(outcomes)),
		hist:     newOutcomeHist(ct.RegCounts()),
	}
	lr.regOnly = target.regOnly()
	for i, o := range outcomes {
		if lr.outcomes[i], err = compileOutcome(t, o, ct.RegCounts(), locIdx); err != nil {
			return nil, err
		}
		lr.regOnly = lr.regOnly && lr.outcomes[i].regOnly()
	}
	lr.wordOff = make([]int, len(ct.RegCounts()))
	off := 0
	for ti, rc := range ct.RegCounts() {
		lr.wordOff[ti] = off
		off += rc
	}
	lr.res = Litmus7Result{
		Test:          t,
		Histogram:     map[string]int64{},
		OutcomeCounts: make([]int64, len(outcomes)),
	}
	return lr, nil
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

// Litmus7Options configures RunLitmus7. The zero value is a serial,
// unverified run.
type Litmus7Options struct {
	// Workers splits the run: worker w runs iterations [n·w/k, n·(w+1)/k)
	// on a private Litmus7Runner seeded with sim.WorkerSeed(cfg.Seed, w),
	// and the per-worker interned histograms and tallies are merged in
	// worker order. Workers is clamped to n; ≤ 1 runs on one runner on
	// the calling goroutine.
	Workers int
	// TraceVerify records and checks witnesses at its stride; each
	// worker checks its own, and the result carries the summed tallies
	// plus up to MaxReports rendered reports (first workers first).
	// Verification reads the simulation but never perturbs it.
	TraceVerify TraceVerify
}

// RunLitmus7 executes n iterations of the test under the given
// synchronization mode and tallies the target outcome, the optional
// extra outcomes of interest, and the full observed-outcome histogram.
// Cancelling ctx aborts the run with the context's error.
//
// Each call compiles the test and builds fresh runners, so the result
// owns its memory; callers running the same test repeatedly should
// compile once and reuse a Litmus7Runner. A k-worker run equals the
// Merge of k serial runs with the derived seeds, so results are
// deterministic for fixed (test, n, mode, cfg, Workers) regardless of
// scheduling; a one-worker run is the serial run. Wall is the elapsed
// host time, and Trace, when enabled, is the first worker's.
func RunLitmus7(ctx context.Context, t *litmus.Test, n int, mode sim.Mode, outcomes []litmus.Outcome, cfg sim.Config, opts Litmus7Options) (*Litmus7Result, error) {
	start := time.Now() //perple:allow nodeterminism wall-clock telemetry; never feeds results
	ct, err := sim.Compile(t)
	if err != nil {
		return nil, err
	}
	workers := min(opts.Workers, n)
	runners := make([]*Litmus7Runner, max(workers, 1))
	for w := range runners {
		if runners[w], err = NewLitmus7Runner(ct, outcomes); err != nil {
			return nil, err
		}
		if err = runners[w].SetTraceVerify(opts.TraceVerify); err != nil {
			return nil, err
		}
	}
	if workers <= 1 {
		return runners[0].RunCtx(ctx, n, mode, cfg)
	}
	results := make([]*Litmus7Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := n*w/workers, n*(w+1)/workers
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			results[w], errs[w] = runners[w].RunCtx(ctx, n, mode, cfg.WithSeed(sim.WorkerSeed(cfg.Seed, w)))
		}(w, hi-lo)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("harness: batch worker %d: %w", w, err)
		}
	}

	out := &Litmus7Result{
		Test:          t,
		Mode:          mode,
		N:             n,
		Histogram:     map[string]int64{},
		OutcomeCounts: make([]int64, len(outcomes)),
		Trace:         results[0].Trace,
	}
	merged := newOutcomeHist(ct.RegCounts())
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
		merged.merge(runners[w].hist)
	}
	merged.materializeInto(out.Histogram)
	out.Wall = time.Since(start) //perple:allow nodeterminism wall-clock telemetry; never feeds results
	return out, nil
}
