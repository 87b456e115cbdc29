package campaign

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"perple/internal/litmus"
)

// BenchmarkRunOrchestration times Campaign.Run with a no-op job runner
// on the litmus7-campaign benchmark's expansion — the .litmus corpus
// under litmus7-user, 400 jobs — checkpointing every 64 jobs: the
// engine's own per-run cost (leasing, merging, snapshots), with no
// simulation in it.
func BenchmarkRunOrchestration(b *testing.B) {
	camp, err := New(Spec{
		Dir: "../../testdata/suite", Tools: []string{"litmus7-user"},
		Iterations: 100000, ShardSize: 10000, TraceVerify: "16",
	})
	if err != nil {
		b.Fatal(err)
	}
	noop := func(_ context.Context, _ *workspace, job Job, _ *litmus.Test, _ Spec) (*JobResult, error) {
		return fakeResult(job), nil
	}
	path := filepath.Join(b.TempDir(), "cp.json")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := camp.Run(context.Background(), Options{CheckpointPath: path, CheckpointEvery: 64, runJob: noop}); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		os.Remove(path)
		os.Remove(path + checkpointPrevSuffix)
		b.StartTimer()
	}
}
