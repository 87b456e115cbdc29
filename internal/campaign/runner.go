package campaign

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync/atomic"

	"perple/internal/core"
	"perple/internal/harness"
	"perple/internal/litmus"
	"perple/internal/sim"
)

// jobFunc runs one shard on an executor's workspace: runJob, or a
// test's injected runner.
type jobFunc func(ctx context.Context, ws *workspace, job Job, test *litmus.Test, spec Spec) (*JobResult, error)

// workspace is one executor's run state, kept for the executor's
// lifetime: an in-process executor of Campaign.Run or a Worker's
// Parallel slot runs every shard it is handed on one workspace. On top
// of the harness runners and buffers (harness.Workspace) it keeps the
// PerpLE conversion of the last converted test, so consecutive shards
// of a test convert, compile and allocate nothing new, and a test
// switch re-points the same arrays.
type workspace struct {
	harness.Workspace

	test    *litmus.Test // the test pt and counter were converted from
	pt      *core.PerpetualTest
	counter *core.Counter
}

// perpetual returns test's perpetual form and target counter,
// converting only when test differs from the last one.
func (ws *workspace) perpetual(test *litmus.Test) (*core.PerpetualTest, *core.Counter, error) {
	if ws.test != test {
		ws.test = nil
		pt, err := core.Convert(test)
		if err != nil {
			return nil, nil, err
		}
		counter, err := core.NewTargetCounter(pt)
		if err != nil {
			return nil, nil, err
		}
		ws.test, ws.pt, ws.counter = test, pt, counter
	}
	return ws.pt, ws.counter, nil
}

// jobExec is the one job-execution step behind both transports: the
// HTTP Worker and Campaign.Run's in-process executors hand every grant
// to exec, each with its own workspace.
type jobExec struct {
	tests map[string]*litmus.Test
	spec  Spec
	run   jobFunc
	// onDone, when set, observes each result before it is reported.
	onDone func(*JobResult)

	// JobsCompleted and JobsFailed count this executor's own runs.
	JobsCompleted atomic.Int64
	JobsFailed    atomic.Int64
}

// exec runs one granted job on ws with panic recovery and returns what
// to report: a result (its Result set) or a failure. A run aborted by
// ctx returns neither — an abort is not a failure, and its lease goes
// back unconsumed. A run that errs or panics may leave ws half-updated,
// so ws is emptied and the next shard starts from fresh state.
func (x *jobExec) exec(ctx context.Context, ws *workspace, g LeaseGrant) (WorkerResult, *WorkerFailure) {
	test := x.tests[g.Job.Test]
	if test == nil {
		return WorkerResult{}, &WorkerFailure{
			LeaseID: g.LeaseID, JobID: g.Job.ID,
			Err: fmt.Sprintf("worker corpus is missing test %q", g.Job.Test),
		}
	}
	jr, err := runRecovered(ctx, ws, g.Job, test, x.spec, x.run)
	if err != nil {
		*ws = workspace{}
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

// runJob executes one shard end to end on ws: it resolves the tool
// (PerpLE falls back to litmus7-user for non-convertible targets, as
// Section VII-G prescribes), seeds the simulator with the job's
// deterministic shard seed, runs, and copies out the mergeable result —
// the histogram and trace reports too, since the run's own alias ws.
// Cancellation propagates into the simulated run and the counters
// through ctx.
func runJob(ctx context.Context, ws *workspace, job Job, test *litmus.Test, spec Spec) (*JobResult, error) {
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
		res, err := ws.RunLitmus7(ctx, test, job.N, mode, nil, cfg, harness.Litmus7Options{
			TraceVerify: harness.TraceVerify{Every: spec.TraceVerifyEvery()},
		})
		if err != nil {
			return nil, err
		}
		jr.Target = res.TargetCount
		jr.Ticks = res.Ticks
		jr.Histogram = maps.Clone(res.Histogram)
		jr.TracesVerified = res.TracesVerified
		jr.TraceViolations = res.TraceViolations
		if len(res.TraceReports) > 0 {
			jr.TraceReports = slices.Clone(res.TraceReports)
		}
		jr.TraceVerifyNs = res.TraceVerifyNs
		return jr, nil
	}

	// PerpLE tools run perpetual tests with no per-iteration rf/co
	// witness, so TraceVerify does not apply to them. The skip is silent:
	// a Note would enter Results.Groups and break the verified-vs-
	// unverified byte-identity of the canonical document.

	pt, counter, err := ws.perpetual(test)
	if err != nil {
		return nil, err
	}
	var opts harness.PerpLEOptions
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
	res, err := ws.RunPerpLE(ctx, pt, counter, job.N, opts, cfg)
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
