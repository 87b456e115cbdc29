package campaign

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"perple/internal/core"
	"perple/internal/harness"
	"perple/internal/litmus"
	"perple/internal/sim"
)

// jobExec is the one job-execution step behind both transports: the
// HTTP Worker and Campaign.Run's in-process executors hand every grant
// to exec.
type jobExec struct {
	tests map[string]*litmus.Test
	spec  Spec
	run   func(ctx context.Context, job Job, test *litmus.Test, spec Spec) (*JobResult, error)
	// onDone, when set, observes each result before it is reported.
	onDone func(*JobResult)

	// JobsCompleted and JobsFailed count this executor's own runs.
	JobsCompleted atomic.Int64
	JobsFailed    atomic.Int64
}

// exec runs one granted job with panic recovery and returns what to
// report: a result (its Result set) or a failure. A run aborted by ctx
// returns neither — an abort is not a failure, and its lease goes back
// unconsumed.
func (x *jobExec) exec(ctx context.Context, g LeaseGrant) (WorkerResult, *WorkerFailure) {
	test := x.tests[g.Job.Test]
	if test == nil {
		return WorkerResult{}, &WorkerFailure{
			LeaseID: g.LeaseID, JobID: g.Job.ID,
			Err: fmt.Sprintf("worker corpus is missing test %q", g.Job.Test),
		}
	}
	jr, err := runRecovered(ctx, g.Job, test, x.spec, x.run)
	if err != nil {
		if ctx.Err() != nil {
			return WorkerResult{}, nil
		}
		x.JobsFailed.Add(1)
		return WorkerResult{}, &WorkerFailure{LeaseID: g.LeaseID, JobID: g.Job.ID, Err: err.Error()}
	}
	x.JobsCompleted.Add(1)
	if x.onDone != nil {
		x.onDone(jr)
	}
	return WorkerResult{LeaseID: g.LeaseID, Result: jr}, nil
}

// runJob executes one shard end to end: it resolves the tool (PerpLE
// falls back to litmus7-user for non-convertible targets, as Section
// VII-G prescribes), seeds the simulator with the
// job's deterministic shard seed, runs, and extracts the mergeable
// result. Cancellation propagates into the simulated run and the
// counters through ctx.
func runJob(ctx context.Context, job Job, test *litmus.Test, spec Spec) (*JobResult, error) {
	cfg, err := sim.Preset(job.Preset)
	if err != nil {
		return nil, err
	}
	cfg = cfg.WithSeed(job.Seed)

	jr := &JobResult{
		JobID:  job.ID,
		Test:   job.Test,
		Tool:   job.Tool,
		Preset: job.Preset,
		Shard:  job.Shard,
		N:      job.N,
		Seed:   job.Seed,
	}

	tool, note := convertibleTool(job.Tool, test)
	jr.Note = note

	if strings.HasPrefix(tool, "litmus7-") {
		mode, err := sim.ParseMode(strings.TrimPrefix(tool, "litmus7-"))
		if err != nil {
			return nil, err
		}
		res, err := harness.RunLitmus7(ctx, test, job.N, mode, nil, cfg, harness.Litmus7Options{
			Workers:     spec.IntraWorkers,
			TraceVerify: harness.TraceVerify{Every: spec.TraceVerifyEvery()},
		})
		if err != nil {
			return nil, err
		}
		jr.Target = res.TargetCount
		jr.Ticks = res.Ticks
		jr.Histogram = res.Histogram
		jr.TracesVerified = res.TracesVerified
		jr.TraceViolations = res.TraceViolations
		jr.TraceReports = res.TraceReports
		jr.TraceVerifyNs = res.TraceVerifyNs
		return jr, nil
	}

	// PerpLE tools run perpetual tests with no per-iteration rf/co
	// witness, so TraceVerify does not apply to them. The skip is silent:
	// a Note would enter Results.Groups and break the verified-vs-
	// unverified byte-identity of the canonical document.

	pt, err := core.Convert(test)
	if err != nil {
		return nil, err
	}
	counter, err := core.NewTargetCounter(pt)
	if err != nil {
		return nil, err
	}
	opts := harness.PerpLEOptions{Workers: spec.IntraWorkers, CountWorkers: spec.IntraWorkers}
	switch tool {
	case "perple-heur":
		opts.Heuristic = true
	case "perple-exh":
		opts.Exhaustive = true
		if spec.ExhCap > 0 {
			opts.ExhaustiveCap = spec.ExhCap
		}
	default:
		return nil, fmt.Errorf("campaign: unknown tool %q", tool)
	}
	res, err := harness.RunPerpLE(ctx, pt, counter, job.N, opts, cfg)
	if err != nil {
		return nil, err
	}
	if tool == "perple-exh" {
		jr.Target = res.Exhaustive.Counts[0]
		jr.Ticks = res.TotalTicksExhaustive()
		jr.Frames = res.Exhaustive.Frames
		if res.ExhaustiveN < job.N {
			jr.Note = joinNotes(jr.Note, fmt.Sprintf("exh capped at %d", res.ExhaustiveN))
		}
		return jr, nil
	}
	jr.Target = res.Heuristic.Counts[0]
	jr.Ticks = res.TotalTicksHeuristic()
	jr.Frames = res.Heuristic.Frames
	return jr, nil
}

func joinNotes(a, b string) string {
	if a == "" {
		return b
	}
	if b == "" {
		return a
	}
	return a + "; " + b
}
