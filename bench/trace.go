package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"perple/internal/axiom"
	"perple/internal/campaign"
	"perple/internal/core"
	"perple/internal/harness"
	"perple/internal/litmus"
	"perple/internal/sim"
)

// probeStride is the witness-sampling stride of the verification runs
// on workloads whose own spec does not verify.
const probeStride = 16

// span is one timed call into a layer, recorded by the benchmark around
// a public function of the repo.
type span struct {
	layer      string
	start, end time.Time
	work       int64 // iterations, frames, witnesses or bytes the call handled
	// onPath marks calls the untraced op makes too; the rest are probes
	// that measure a layer on this workload's inputs.
	onPath bool
}

// tracer keeps every span of a replay pass in memory.
type tracer struct{ spans []span }

func (t *tracer) do(layer string, onPath bool, f func() (int64, error)) error {
	start := time.Now()
	work, err := f()
	t.spans = append(t.spans, span{layer: layer, start: start, end: time.Now(), work: work, onPath: onPath})
	return err
}

// sum totals a layer's spans: seconds, work and calls.
func (t *tracer) sum(layer string) (secs float64, work int64, calls int) {
	for _, s := range t.spans {
		if s.layer == layer {
			secs += s.end.Sub(s.start).Seconds()
			work += s.work
			calls++
		}
	}
	return secs, work, calls
}

// onPath totals the spans the untraced op also executes.
func (t *tracer) onPath() float64 {
	var secs float64
	for _, s := range t.spans {
		if s.onPath {
			secs += s.end.Sub(s.start).Seconds()
		}
	}
	return secs
}

// replay re-executes a campaign's jobs one public call at a time, in the
// order runJob makes them, and rebuilds each JobResult exactly as runJob
// does so the replay's canonical document must equal the op's.
type replay struct {
	ctx   context.Context
	t     *tracer
	spec  campaign.Spec // validated
	tests map[string]*litmus.Test
	// full adds the probes: calls the op does not make but that split a
	// layer's cost or measure a layer on this workload's inputs. Without
	// it the pass makes only the op's own calls.
	full bool
	// shardOnPath says the shard layers run in the untraced op (false
	// for paper-eval, whose drivers hide them).
	shardOnPath bool
	// probePerple runs the PerpLE layers on each convertible test's
	// first shard of a litmus7-only workload.
	probePerple             bool
	exhShards, factorizedOK int
}

// job replays one shard and returns its mergeable result.
func (rp *replay) job(job campaign.Job) (*campaign.JobResult, error) {
	test := rp.tests[job.Test]
	cfg, err := sim.Preset(job.Preset)
	if err != nil {
		return nil, err
	}
	cfg = cfg.WithSeed(job.Seed)
	jr := &campaign.JobResult{
		JobID: job.ID, Test: job.Test, Tool: job.Tool, Preset: job.Preset,
		Shard: job.Shard, N: job.N, Seed: job.Seed,
	}
	tool := job.Tool
	convertible := !test.Target.HasMemConds()
	if strings.HasPrefix(tool, "perple-") && !convertible {
		tool, jr.Note = "litmus7-user", "not convertible"
	}
	if strings.HasPrefix(tool, "perple-") {
		return jr, rp.perple(test, job.N, tool, cfg, jr, rp.shardOnPath, job.Shard == 0)
	}
	mode, err := sim.ParseMode(strings.TrimPrefix(tool, "litmus7-"))
	if err != nil {
		return nil, err
	}
	if err := rp.litmus7(test, job.N, mode, cfg, jr); err != nil {
		return nil, err
	}
	if rp.full && rp.probePerple && job.Shard == 0 && convertible {
		for _, probe := range []string{"perple-heur", "perple-exh"} {
			if err := rp.perple(test, job.N, probe, cfg, nil, false, true); err != nil {
				return nil, err
			}
		}
	}
	return jr, nil
}

// litmus7 replays a litmus7 shard. A full pass runs it three times on
// fresh machines — the bare step loop, the run with verification off,
// and the run with witness verification — so tally and verification
// cost fall out as differences; an on-path pass runs only the one the
// op makes.
func (rp *replay) litmus7(test *litmus.Test, n int, mode sim.Mode, cfg sim.Config, jr *campaign.JobResult) error {
	verifying := rp.spec.TraceVerifyEvery() > 0
	stride := rp.spec.TraceVerifyEvery()
	if !verifying {
		stride = probeStride
	}
	var ct *sim.CompiledTest
	if err := rp.t.do("sim.compile", rp.shardOnPath, func() (int64, error) {
		var err error
		ct, err = sim.Compile(test)
		return 1, err
	}); err != nil {
		return err
	}
	if rp.full {
		if err := rp.t.do("sim.synced", false, func() (int64, error) {
			_, err := sim.NewRunner(ct).RunSynced(n, mode, cfg)
			return int64(n), err
		}); err != nil {
			return err
		}
	}
	// Each run builds its own runner, as runJob does per shard; a
	// Litmus7Result aliases its runner, so the result kept below stays
	// valid.
	var res *harness.Litmus7Result
	if rp.full || !verifying {
		if err := rp.t.do("harness.litmus7", rp.shardOnPath && !verifying, func() (int64, error) {
			lr, err := harness.NewLitmus7Runner(ct, nil)
			if err != nil {
				return 0, err
			}
			res, err = lr.Run(n, mode, cfg)
			return int64(n), err
		}); err != nil {
			return err
		}
	}
	if rp.full || verifying {
		if err := rp.t.do("harness.litmus7_verify", rp.shardOnPath && verifying, func() (int64, error) {
			vr, err := harness.NewLitmus7Runner(ct, nil)
			if err != nil {
				return 0, err
			}
			if err := vr.SetTraceVerify(harness.TraceVerify{Every: stride}); err != nil {
				return 0, err
			}
			ver, err := vr.Run(n, mode, cfg)
			if err != nil {
				return 0, err
			}
			if ver.TraceViolations > 0 {
				return 0, fmt.Errorf("%s: %d witness trace(s) violate x86-TSO", test.Name, ver.TraceViolations)
			}
			if verifying {
				res = ver
				jr.TracesVerified, jr.TraceVerifyNs = ver.TracesVerified, ver.TraceVerifyNs
			}
			return ver.TracesVerified, nil
		}); err != nil {
			return err
		}
	}
	jr.Target, jr.Ticks, jr.Histogram = res.TargetCount, res.Ticks, res.Histogram
	return nil
}

// perple replays a PerpLE shard: convert, compile, perpetual run, then
// the tool's counter — for perple-exh, CountExhaustiveAuto's own order:
// the factorized pass, and the odometer when it declines. In a full
// pass, on a test's first shard the odometer also runs as a probe after
// an accepted factorized pass when the frame space is quadratic
// (TL ≤ 2), so its per-frame cost is measured on every workload. A nil
// jr marks a probe whose result is discarded.
func (rp *replay) perple(test *litmus.Test, n int, tool string, cfg sim.Config, jr *campaign.JobResult, onPath, firstShard bool) error {
	var pt *core.PerpetualTest
	var counter *core.Counter
	if err := rp.t.do("core.convert", onPath, func() (int64, error) {
		var err error
		if pt, err = core.Convert(test); err != nil {
			return 0, err
		}
		counter, err = core.NewTargetCounter(pt)
		return 1, err
	}); err != nil {
		return err
	}
	var cp *sim.CompiledPerpetual
	if err := rp.t.do("sim.compile", onPath, func() (int64, error) {
		var err error
		cp, err = sim.CompilePerpetual(pt)
		return 1, err
	}); err != nil {
		return err
	}
	var run *sim.PerpetualResult
	if err := rp.t.do("sim.perpetual", onPath, func() (int64, error) {
		var err error
		run, err = sim.NewPerpetualRunner(cp).Run(n, cfg)
		return int64(n), err
	}); err != nil {
		return err
	}
	var cr *core.CountResult
	frameTick := cfg.HeurFrameTick
	if tool == "perple-heur" {
		if err := rp.t.do("core.count_heur", onPath, func() (int64, error) {
			var err error
			cr, err = counter.CountHeuristicParallel(rp.ctx, run.Bufs, 1)
			if err != nil {
				return 0, err
			}
			return cr.Frames, nil
		}); err != nil {
			return err
		}
	} else {
		frameTick = cfg.ExhFrameTick
		bufs, exhN := run.Bufs, n
		if rp.spec.ExhCap > 0 && rp.spec.ExhCap < n {
			exhN = rp.spec.ExhCap
			bufs = truncateBufs(pt, run.Bufs, exhN)
		}
		var ok bool
		if err := rp.t.do("core.count_factorized", onPath, func() (int64, error) {
			var err error
			cr, ok, err = counter.CountFactorized(bufs)
			return 1, err
		}); err != nil {
			return err
		}
		rp.exhShards++
		if ok {
			rp.factorizedOK++
		}
		if !ok || rp.full && firstShard && pt.TL() <= 2 {
			if err := rp.t.do("core.count_odometer", onPath && !ok, func() (int64, error) {
				odo, err := counter.CountExhaustiveParallel(rp.ctx, bufs, 1)
				if err != nil {
					return 0, err
				}
				if !ok {
					cr = odo
				}
				return odo.Frames, nil
			}); err != nil {
				return err
			}
		}
		if jr != nil && exhN < n {
			jr.Note = joinNotes(jr.Note, fmt.Sprintf("exh capped at %d", exhN))
		}
	}
	if jr != nil {
		jr.Target = cr.Counts[0]
		jr.Ticks = run.Ticks + int64(float64(cr.Frames)*frameTick*float64(len(counter.Outcomes())))
		jr.Frames = cr.Frames
	}
	return nil
}

// truncateBufs views the first n iterations of a perpetual run, as the
// PerpLE harness does before a capped exhaustive count.
func truncateBufs(pt *core.PerpetualTest, bs *core.BufSet, n int) *core.BufSet {
	out := &core.BufSet{N: n, Bufs: make([][]int64, len(bs.Bufs))}
	for t, b := range bs.Bufs {
		if b != nil {
			out.Bufs[t] = b[:pt.Reads[t]*n]
		}
	}
	return out
}

func joinNotes(a, b string) string {
	if a == "" {
		return b
	}
	return a + "; " + b
}

// pass is one replay of the workload: its spans and the output the op's
// digest covers (for a full paper-eval pass, the replayed campaign's
// document, which has no untraced counterpart).
type pass struct {
	t   *tracer
	rp  *replay
	doc []byte
}

// replayPass replays the workload once. An on-path pass (full false)
// makes exactly the op's calls: the drivers for paper-eval, otherwise
// the job list plus, for the fleet, the durable dispatcher. A full pass
// adds every probe, and the dispatcher with the WAL off and on.
func (r *runner) replayPass(ctx context.Context, camp *campaign.Campaign, tests map[string]*litmus.Test, full bool) (*pass, error) {
	t := &tracer{}
	if r.w.kind == kindPaper && !full {
		var buf bytes.Buffer
		for _, d := range paperDrivers {
			if err := t.do("experiments."+d.name, true, func() (int64, error) {
				return 0, d.run(&buf, r.paperOptions())
			}); err != nil {
				return nil, fmt.Errorf("%s: %w", d.name, err)
			}
		}
		return &pass{t: t, doc: buf.Bytes()}, nil
	}
	rp := &replay{
		ctx: ctx, t: t, spec: camp.Spec, tests: tests, full: full,
		shardOnPath: r.w.kind != kindPaper,
		probePerple: !hasPerpleTool(camp.Spec.Tools),
	}
	jobs := camp.Jobs()
	results := campaign.NewResults()
	done := map[int]*campaign.JobResult{}
	byID := make([]*campaign.JobResult, len(jobs))
	wireSize := make([]int, len(jobs))
	checkpointing := r.w.kind == kindLocal && r.w.checkpointEvery > 0
	every := r.w.checkpointEvery
	if every == 0 {
		every = 64
	}
	ckpt := filepath.Join(r.tmp, "trace-checkpoint.json")
	var wireBuf []byte
	since := 0
	for i, job := range jobs {
		jr, err := rp.job(job)
		if err != nil {
			return nil, fmt.Errorf("replaying job %d (%s/%s shard %d): %w", job.ID, job.Test, job.Tool, job.Shard, err)
		}
		byID[job.ID] = jr
		_ = t.do("campaign.merge", r.w.kind == kindLocal, func() (int64, error) {
			results.Add(jr)
			return 1, nil
		})
		done[jr.JobID] = jr
		req := campaign.CompleteRequest{
			Version: campaign.ProtocolVersion, Worker: "bench-worker",
			Results: []campaign.WorkerResult{{LeaseID: int64(job.ID) + 1, Result: jr}},
		}
		_ = t.do("harness.wire_encode", r.w.kind == kindFleet, func() (int64, error) {
			wireBuf = harness.EncodeWireBinary(wireBuf, &req)
			return int64(len(wireBuf)), nil
		})
		wireSize[job.ID] = len(wireBuf)
		if err := t.do("harness.wire_decode", r.w.kind == kindFleet, func() (int64, error) {
			var got campaign.CompleteRequest
			return 1, harness.DecodeWireBinary(wireBuf, &got, 0)
		}); err != nil {
			return nil, err
		}
		since++
		if (full || checkpointing) && (since >= every || i == len(jobs)-1) {
			since = 0
			if err := t.do("campaign.checkpoint", checkpointing, func() (int64, error) {
				if err := campaign.SaveCheckpoint(ckpt, camp.Spec, done); err != nil {
					return 0, err
				}
				fi, err := os.Stat(ckpt)
				if err != nil {
					return 0, err
				}
				return fi.Size(), nil
			}); err != nil {
				return nil, err
			}
		}
	}
	var doc []byte
	if err := t.do("campaign.canonical", r.w.kind != kindPaper, func() (int64, error) {
		var err error
		doc, err = results.CanonicalJSON()
		return 1, err
	}); err != nil {
		return nil, err
	}
	for _, wal := range []bool{false, true} {
		if !full && !(wal && r.w.kind == kindFleet) {
			continue
		}
		got, err := r.dispatch(t, camp, byID, wireSize, wal)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(got, doc) {
			return nil, fmt.Errorf("dispatcher (wal=%v) results differ from the replay's", wal)
		}
	}
	return &pass{t: t, rp: rp, doc: doc}, nil
}

// traced is the traced run. It brackets two on-path passes between two
// untraced ops (op, pass, pass, op), so a drift in host speed during the
// run cancels out of the untraced-vs-spans comparison, then times the
// set-up layers and makes one full pass for the per-layer metrics.
// Layers the workload's own op does not reach are still measured on its
// inputs; README.md maps which end-to-end metric each layer moves where.
func (r *runner) traced(ctx context.Context, seconds float64, log io.Writer) (*result, error) {
	spec := r.spec()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	corpus, err := spec.Corpus()
	if err != nil {
		return nil, err
	}
	tests := map[string]*litmus.Test{}
	for _, test := range corpus {
		tests[test.Name] = test
	}
	camp, err := campaign.New(r.spec())
	if err != nil {
		return nil, err
	}

	res := &result{Metrics: map[string]metric{}}
	var untraced, onPath float64
	var first *pass
	for _, step := range []string{"op", "pass", "pass", "op"} {
		if step == "op" {
			st, err := r.runOps(ctx, seconds, 1, log)
			if err != nil {
				return nil, err
			}
			res.Attempted += st.attempted
			res.Failed += st.failed
			untraced += st.wall[0] / 2
			continue
		}
		p, err := r.replayPass(ctx, camp, tests, false)
		if err != nil {
			return nil, err
		}
		res.Attempted++
		if got := sha256Hex(p.doc); got != r.digest {
			res.Failed++
			fmt.Fprintf(log, "on-path pass output digest %s, untraced %s\n", got, r.digest)
		}
		onPath += p.t.onPath() / 2
		if first == nil {
			first = p
		}
	}
	fmt.Fprintln(log, "on-path pass:")
	first.t.report(log)

	m := map[string]float64{}
	var corpusMs, classifyMs, newMs []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := spec.Corpus(); err != nil {
			return nil, err
		}
		t1 := time.Now()
		for _, test := range corpus {
			var tooLarge *axiom.TooLargeError
			if _, err := axiom.Analyze(test); err != nil && !errors.As(err, &tooLarge) {
				return nil, fmt.Errorf("classifying %s: %w", test.Name, err)
			}
		}
		t2 := time.Now()
		if _, err := campaign.New(r.spec()); err != nil {
			return nil, err
		}
		corpusMs = append(corpusMs, t1.Sub(t0).Seconds()*1e3)
		classifyMs = append(classifyMs, t2.Sub(t1).Seconds()*1e3)
		newMs = append(newMs, time.Since(t2).Seconds()*1e3)
	}
	m["litmus.corpus_ms"] = summarize(corpusMs).Median
	m["axiom.classify_ms"] = summarize(classifyMs).Median
	m["campaign.new_ms"] = summarize(newMs).Median

	fullStart := time.Now()
	p, err := r.replayPass(ctx, camp, tests, true)
	if err != nil {
		return nil, err
	}
	res.Attempted++
	if got := sha256Hex(p.doc); r.w.kind != kindPaper && got != r.digest {
		res.Failed++
		fmt.Fprintf(log, "full pass output digest %s, untraced %s\n", got, r.digest)
	}
	fmt.Fprintf(log, "full pass (%.4fs):\n", time.Since(fullStart).Seconds())
	t, rp := p.t, p.rp
	t.report(log)

	perCall := func(layer string, scale float64) float64 {
		secs, _, calls := t.sum(layer)
		return secs / float64(calls) * scale
	}
	perWork := func(layer string, scale float64) float64 {
		secs, work, _ := t.sum(layer)
		return secs / float64(work) * scale
	}
	synced, iters, _ := t.sum("sim.synced")
	off, _, _ := t.sum("harness.litmus7")
	ver, witnesses, _ := t.sum("harness.litmus7_verify")
	m["core.convert_us"] = perCall("core.convert", 1e6)
	m["sim.compile_us"] = perCall("sim.compile", 1e6)
	m["sim.synced_ns_per_iter"] = synced / float64(iters) * 1e9
	m["harness.tally_ns_per_iter"] = (off - synced) / float64(iters) * 1e9
	m["trace.verify_ns_per_witness"] = (ver - off) / float64(witnesses) * 1e9
	m["trace.witnesses"] = float64(witnesses)
	m["sim.perpetual_ns_per_iter"] = perWork("sim.perpetual", 1e9)
	m["core.count_heur_ns_per_frame"] = perWork("core.count_heur", 1e9)
	m["core.count_factorized_ms"] = perCall("core.count_factorized", 1e3)
	m["core.count_odometer_ns_per_frame"] = perWork("core.count_odometer", 1e9)
	m["core.factorized_frac"] = float64(rp.factorizedOK) / float64(rp.exhShards)
	m["campaign.merge_us"] = perCall("campaign.merge", 1e6)
	m["campaign.canonical_ms"] = perCall("campaign.canonical", 1e3)
	m["campaign.checkpoint_ms"] = perCall("campaign.checkpoint", 1e3)
	_, ckptBytes, ckpts := t.sum("campaign.checkpoint")
	m["campaign.checkpoint_kb"] = float64(ckptBytes) / float64(ckpts) / 1024
	m["harness.wire_encode_us"] = perCall("harness.wire_encode", 1e6)
	m["harness.wire_decode_us"] = perCall("harness.wire_decode", 1e6)
	_, wireBytes, encodes := t.sum("harness.wire_encode")
	m["harness.wire_bytes"] = float64(wireBytes) / float64(encodes)
	m["campaign.lease_us"] = perCall("campaign.lease", 1e6)
	m["campaign.complete_us"] = perCall("campaign.complete", 1e6)
	m["campaign.lease_wal_us"] = perCall("campaign.lease_wal", 1e6)
	m["campaign.complete_wal_us"] = perCall("campaign.complete_wal", 1e6)
	m["campaign.complete_growth"] = t.growth("campaign.complete_wal")
	m["campaign.protocol_us_per_shard"] = (untraced - onPath) / float64(len(camp.Jobs())) * 1e6
	m["unattributed_frac"] = 1 - onPath/untraced

	fmt.Fprintf(log, "untraced op %.4fs, on-path spans %.4fs (means of two)\n", untraced, onPath)
	for _, row := range layers {
		v, ok := m[row.name]
		if !ok {
			return nil, fmt.Errorf("traced run computed no %s", row.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) { // a layer saw no calls or no work
			return nil, fmt.Errorf("layer metric %s has no measurement on %s", row.name, r.w.name)
		}
		res.Metrics[row.name] = metric{Value: v, Unit: row.unit}
		fmt.Fprintf(log, "%-32s %s %s  [%s]\n", row.name, formatValue(v), row.unit, row.calls)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// dispatch drives a Dispatcher over the campaign directly — lease one
// job, complete it with the replayed result — the way a one-job fleet
// worker does, without HTTP. With wal set it runs the fleet's durable
// configuration: a WAL synced every record, compacting into a
// checkpoint. It returns the dispatcher's canonical results.
func (r *runner) dispatch(t *tracer, camp *campaign.Campaign, byID []*campaign.JobResult, wireSize []int, wal bool) ([]byte, error) {
	opts := campaign.Options{}
	lease, complete := "campaign.lease", "campaign.complete"
	if wal {
		dir, err := os.MkdirTemp(r.tmp, "dispatch-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		opts.CheckpointPath = filepath.Join(dir, "checkpoint.json")
		opts.WALPath = filepath.Join(dir, "ledger.wal")
		opts.WALSyncEvery = 1
		lease, complete = "campaign.lease_wal", "campaign.complete_wal"
	}
	onPath := wal && r.w.kind == kindFleet
	d, err := campaign.NewDispatcher(camp, 0, opts)
	if err != nil {
		return nil, err
	}
	for range byID {
		var resp campaign.LeaseResponse
		_ = t.do(lease, onPath, func() (int64, error) {
			resp = d.Lease(campaign.LeaseRequest{Worker: "bench-worker", Max: 1})
			return 1, nil
		})
		if len(resp.Grants) != 1 {
			return nil, fmt.Errorf("dispatcher granted %d leases, want 1", len(resp.Grants))
		}
		g := resp.Grants[0]
		req := campaign.CompleteRequest{
			Version: campaign.ProtocolVersion, Worker: "bench-worker",
			Results: []campaign.WorkerResult{{LeaseID: g.LeaseID, Result: byID[g.Job.ID]}},
		}
		var cr campaign.CompleteResponse
		_ = t.do(complete, onPath, func() (int64, error) {
			cr = d.Complete(req, wireSize[g.Job.ID])
			return 1, nil
		})
		if cr.Merged != 1 {
			return nil, fmt.Errorf("dispatcher merged %d results for job %d, want 1", cr.Merged, g.Job.ID)
		}
	}
	select {
	case <-d.Finished():
	default:
		return nil, fmt.Errorf("dispatcher not finished after every job completed")
	}
	res, err, _ := d.Outcome()
	if err != nil {
		return nil, err
	}
	return res.CanonicalJSON()
}

// growth is the mean span of a layer's last decile of calls divided by
// the mean of its first decile, in call order.
func (t *tracer) growth(layer string) float64 {
	var ds []float64
	for _, s := range t.spans {
		if s.layer == layer {
			ds = append(ds, s.end.Sub(s.start).Seconds())
		}
	}
	k := max(len(ds)/10, 1)
	mean := func(xs []float64) float64 {
		var sum float64
		for _, x := range xs {
			sum += x
		}
		return sum / float64(len(xs))
	}
	return mean(ds[len(ds)-k:]) / mean(ds[:k])
}

// report prints each layer's call count, total and on-path time, so
// the per-layer metrics can be traced back to their spans.
func (t *tracer) report(log io.Writer) {
	type agg struct {
		calls         int
		total, onPath float64
	}
	byLayer := map[string]*agg{}
	for _, s := range t.spans {
		a := byLayer[s.layer]
		if a == nil {
			a = &agg{}
			byLayer[s.layer] = a
		}
		d := s.end.Sub(s.start).Seconds()
		a.calls++
		a.total += d
		if s.onPath {
			a.onPath += d
		}
	}
	names := make([]string, 0, len(byLayer))
	for name := range byLayer {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(log, "  %-28s %8s %12s %12s\n", "span", "calls", "total_s", "on_path_s")
	for _, name := range names {
		a := byLayer[name]
		fmt.Fprintf(log, "  %-28s %8d %12.6f %12.6f\n", name, a.calls, a.total, a.onPath)
	}
}

func hasPerpleTool(tools []string) bool {
	for _, tool := range tools {
		if strings.HasPrefix(tool, "perple-") {
			return true
		}
	}
	return false
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
