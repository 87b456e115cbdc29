package campaign

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"perple/internal/litmus"
)

// BenchmarkRunOrchestration times Campaign.Run with a no-op job runner
// and a checkpoint: the engine's own per-run cost (leasing, merging,
// snapshots), with no simulation in it. Each sub-benchmark reports the
// snapshots a run saves and the bytes they write, as saves/op and
// ckpt-bytes/op.
//
//   - litmus7-campaign is that benchmark's expansion, the .litmus corpus
//     under litmus7-user (400 jobs), at a floor of 64 as bench/ runs it.
//   - fleet-2000 is the fleet-durable spec's 2000 shards at the default
//     floor. The doubling schedule saves 6 times there; a snapshot per
//     job would be 2000 saves writing hundreds of MB, which the count
//     gate of perple-bench -check catches.
func BenchmarkRunOrchestration(b *testing.B) {
	cases := []struct {
		name  string
		spec  Spec
		floor int
	}{
		{"litmus7-campaign", Spec{
			Dir: "../../testdata/suite", Tools: []string{"litmus7-user"},
			Iterations: 100000, ShardSize: 10000, TraceVerify: "16",
		}, 64},
		{"fleet-2000", Spec{Tools: []string{"litmus7-user"}, Iterations: 50000, ShardSize: 1000}, 0},
	}
	noop := func(_ context.Context, _ *workspace, job Job, _ *litmus.Test, _ Spec) (*JobResult, error) {
		return fakeResult(job), nil
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			camp, err := New(tc.spec)
			if err != nil {
				b.Fatal(err)
			}
			path := filepath.Join(b.TempDir(), "cp.json")
			metrics := &Metrics{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := camp.Run(context.Background(), Options{CheckpointPath: path, CheckpointEvery: tc.floor, Metrics: metrics, runJob: noop}); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				os.Remove(path)
				os.Remove(path + checkpointPrevSuffix)
				b.StartTimer()
			}
			b.ReportMetric(float64(metrics.CheckpointSaves.Load())/float64(b.N), "saves/op")
			b.ReportMetric(float64(metrics.CheckpointBytes.Load())/float64(b.N), "ckpt-bytes/op")
		})
	}
}
