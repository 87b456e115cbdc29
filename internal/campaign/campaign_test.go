package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// suiteSpec is a real campaign over a slice of testdata/suite: three
// tools (PerpLE heuristic, the exhaustive counter, and a litmus7 mode
// with histograms), two machine presets, sharded iteration budgets.
func suiteSpec() Spec {
	return Spec{
		Name:       "kill-resume-e2e",
		Dir:        "../../testdata/suite",
		Tests:      []string{"sb", "mp", "lb", "iriw", "wrc"},
		Tools:      []string{"perple-heur", "perple-exh", "litmus7-timebase"},
		Presets:    []string{"default", "pso"},
		Seed:       42,
		Iterations: 600,
		ShardSize:  200,
		ExhCap:     100,
		Workers:    4,
	}
}

// TestCampaignEndToEnd runs the suite campaign uninterrupted and checks
// the merged totals are sane: every (test, tool, preset) group holds its
// full budget and the sb store-buffering target was detected by PerpLE.
func TestCampaignEndToEnd(t *testing.T) {
	spec := suiteSpec()
	camp, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	// 5 tests × 3 tools × 2 presets × 3 shards.
	if got := len(camp.Jobs()); got != 90 {
		t.Fatalf("expanded %d jobs, want 90", got)
	}
	res, err := camp.Run(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 0 {
		t.Fatalf("failures: %v", res.Failures)
	}
	if len(res.Groups) != 30 {
		t.Fatalf("got %d groups, want 30", len(res.Groups))
	}
	for _, g := range res.Groups {
		if g.N != 600 || g.Shards != 3 {
			t.Fatalf("group %s/%s/%s has n=%d shards=%d", g.Test, g.Tool, g.Preset, g.N, g.Shards)
		}
	}
	sb := res.Groups[groupKey("sb", "perple-heur", "default")]
	if sb == nil || sb.Target == 0 {
		t.Fatalf("PerpLE found no store-buffering outcomes on sb: %+v", sb)
	}
	l7 := res.Groups[groupKey("sb", "litmus7-timebase", "default")]
	if l7 == nil || len(l7.Histogram) == 0 {
		t.Fatalf("litmus7 run carried no histogram: %+v", l7)
	}
}

// TestCampaignKillResumeDeterminism is the resume guarantee, end to end
// with the real harness: a campaign cancelled mid-run and resumed from
// its checkpoint renders byte-identical merged totals to the same
// campaign run uninterrupted.
func TestCampaignKillResumeDeterminism(t *testing.T) {
	spec := suiteSpec()

	// Reference: uninterrupted run (no checkpointing at all).
	ref, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Run(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := refRes.Render()

	// Interrupted run: cancel after the 7th job lands, mid-campaign.
	path := filepath.Join(t.TempDir(), "campaign.json")
	killed, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	landed := 0
	killedMetrics := &Metrics{}
	partial, err := killed.Run(ctx, Options{
		CheckpointPath: path,
		Metrics:        killedMetrics,
		OnJobDone: func(*JobResult) {
			if landed++; landed == 7 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	if _, _, n := partial.Totals(); n == 0 {
		t.Fatal("interrupted run recorded nothing before the kill")
	}
	if got := partial.Render(); got == want {
		t.Fatal("campaign finished before the kill; lower the cancel threshold")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}

	// Resume: a fresh Campaign (as after a process restart) against the
	// same checkpoint file.
	resumed, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	resumedMetrics := &Metrics{}
	finalRes, err := resumed.Run(context.Background(), Options{
		CheckpointPath: path,
		Metrics:        resumedMetrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumedMetrics.JobsRestored.Load() == 0 {
		t.Fatal("resume re-ran every job instead of restoring the checkpoint")
	}
	if restored, completed := resumedMetrics.JobsRestored.Load(), resumedMetrics.JobsCompleted.Load(); restored+completed != 90 {
		t.Fatalf("restored %d + completed %d != 90 jobs", restored, completed)
	}

	if got := finalRes.Render(); got != want {
		t.Errorf("resumed totals differ from the uninterrupted run\n--- uninterrupted ---\n%s\n--- resumed ---\n%s", want, got)
	}

	// And a second resume on the finished checkpoint is a pure restore.
	again, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	againMetrics := &Metrics{}
	againRes, err := again.Run(context.Background(), Options{
		CheckpointPath: path,
		Metrics:        againMetrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	if againMetrics.JobsRestored.Load() != 90 || againMetrics.JobsCompleted.Load() != 0 {
		t.Fatalf("finished campaign re-ran jobs: restored=%d completed=%d",
			againMetrics.JobsRestored.Load(), againMetrics.JobsCompleted.Load())
	}
	if got := againRes.Render(); got != want {
		t.Error("restore-only run renders different totals")
	}
}

// TestCampaignResumeAfterCheckpointEvery exercises an interrupted run
// whose last scheduled snapshot trails the merged totals: the closing
// save catches the checkpoint up, and the resumed run must converge to
// identical totals.
func TestCampaignResumeAfterCheckpointEvery(t *testing.T) {
	spec := suiteSpec()
	spec.Tests = []string{"sb", "mp"}
	spec.Tools = []string{"perple-heur"}

	ref, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Run(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := refRes.Render()

	path := filepath.Join(t.TempDir(), "campaign.json")
	killed, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	landed := 0
	if _, err := killed.Run(ctx, Options{
		CheckpointPath:  path,
		CheckpointEvery: 3,
		OnJobDone: func(*JobResult) {
			if landed++; landed == 4 {
				cancel()
			}
		},
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v", err)
	}

	resumed, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	finalRes, err := resumed.Run(context.Background(), Options{CheckpointPath: path, CheckpointEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := finalRes.Render(); got != want {
		t.Errorf("batched-checkpoint resume differs from uninterrupted run\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}

// TestCampaignHardKillResume kills a run without a WAL hard — no save
// reaches disk after its k-th merge, the closing one included — for
// every k, and resumes it. The resume restores the last scheduled
// snapshot before k, re-runs at most max(floor, rows in it) jobs, and
// renders byte-identical totals to an uninterrupted run.
func TestCampaignHardKillResume(t *testing.T) {
	spec := Spec{
		Tests: []string{"sb", "mp", "lb"}, Tools: []string{"litmus7-user"},
		Iterations: 80, ShardSize: 10, Seed: 5, Workers: 1, // 24 jobs
	}
	ref, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Run(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := refRes.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	const floor = 2
	dir := t.TempDir()
	for k := 1; k <= len(ref.jobs); k++ {
		path := filepath.Join(dir, fmt.Sprintf("cp-%d.json", k))
		camp, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		d, err := newDispatcher(camp, 0, Options{CheckpointPath: path, CheckpointEvery: floor})
		if err != nil {
			t.Fatal(err)
		}
		merged := 0
		d.killHook = func(point string) bool {
			if point == "pre-wal-complete" {
				merged++
			}
			return merged == k
		}
		d.execute(context.Background(), &jobExec{tests: camp.tests, spec: camp.Spec, run: d.opts.runJob}, new(workspace), "local-0")
		if merged != len(camp.jobs) {
			t.Fatalf("k=%d: the killed run merged %d of %d jobs", k, merged, len(camp.jobs))
		}

		resumed, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		metrics := &Metrics{}
		res, err := resumed.Run(context.Background(), Options{CheckpointPath: path, CheckpointEvery: floor, Metrics: metrics})
		if err != nil {
			t.Fatal(err)
		}
		if got, err := res.CanonicalJSON(); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("k=%d: resumed totals differ from the uninterrupted run (err %v)", k, err)
		}
		last := 0 // the last scheduled save before the kill
		for nextSave(floor, last) < k {
			last = nextSave(floor, last)
		}
		restored := int(metrics.JobsRestored.Load())
		if rerun := k - restored; restored != last || rerun > max(floor, restored) {
			t.Fatalf("k=%d: restored %d jobs (want %d) and re-ran %d, past max(%d, %d)", k, restored, last, rerun, floor, restored)
		}
	}
}
