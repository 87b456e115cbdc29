package sim

import (
	"context"
	"reflect"
	"testing"

	"perple/internal/litmus"
)

func mustCompile(t *testing.T, test *litmus.Test) *CompiledTest {
	t.Helper()
	ct, err := Compile(test)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

func sbTest(t *testing.T) *litmus.Test {
	t.Helper()
	test, err := litmus.SuiteTest("sb")
	if err != nil {
		t.Fatalf("SuiteTest(sb): %v", err)
	}
	return test
}

// cloneSynced deep-copies a result so it survives runner reuse.
func cloneSynced(res *SyncedResult) *SyncedResult {
	out := *res
	out.Mem = append([]int64(nil), res.Mem...)
	out.Regs = make([][]int64, len(res.Regs))
	for i, r := range res.Regs {
		out.Regs[i] = append([]int64(nil), r...)
	}
	return &out
}

func TestRunnerReuseDeterministic(t *testing.T) {
	test := sbTest(t)
	ct, err := Compile(test)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(ct)
	cfg := DefaultConfig().WithSeed(42)
	first, err := r.RunSynced(500, ModeUser, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := cloneSynced(first)
	// Interleave a differently-shaped run to dirty every reused array.
	if _, err := r.RunSynced(123, ModeNone, DefaultConfig().WithSeed(7)); err != nil {
		t.Fatal(err)
	}
	again, err := r.RunSynced(500, ModeUser, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap.Regs, again.Regs) || !reflect.DeepEqual(snap.Mem, again.Mem) || snap.Ticks != again.Ticks {
		t.Fatal("rerun on a reused Runner differs from its first run")
	}
}

// TestRunnerMatchesPackageRun holds one Runner, reused across every
// mode in turn, to a fresh compile-and-run per mode.
func TestRunnerMatchesPackageRun(t *testing.T) {
	test := sbTest(t)
	cfg := DefaultConfig().WithSeed(99)
	r := NewRunner(mustCompile(t, test))
	for _, mode := range []Mode{ModeUser, ModeUserFence, ModePthread, ModeTimebase, ModeNone} {
		fresh, err := runSynced(test, 300, mode, cfg)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		reused, err := r.RunSynced(300, mode, cfg)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !reflect.DeepEqual(fresh.Regs, reused.Regs) || fresh.Ticks != reused.Ticks {
			t.Fatalf("%v: reused Runner differs from a fresh one", mode)
		}
	}
}

func TestRunnerSteadyStateAllocs(t *testing.T) {
	test := sbTest(t)
	ct, err := Compile(test)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(ct)
	cfg := DefaultConfig().WithSeed(3)
	// Warm up so every backing array reaches steady-state capacity.
	if _, err := r.RunSynced(200, ModeUser, cfg); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := r.RunSynced(200, ModeUser, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 2 {
		t.Fatalf("steady-state Runner run allocates %.1f times, want ≤ 2", avg)
	}
}

func TestBatchWorker0MatchesSerial(t *testing.T) {
	test := sbTest(t)
	cfg := DefaultConfig().WithSeed(11)
	serial, err := runSynced(test, 400, ModeUser, cfg)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := mustCompile(t, test).RunSyncedBatchCtx(context.Background(), 400, ModeUser, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 1 || shards[0].N != 400 || shards[0].Seed != cfg.Seed {
		t.Fatalf("unexpected shard layout: %+v", shards)
	}
	if !reflect.DeepEqual(serial.Regs, shards[0].Res.Regs) || serial.Ticks != shards[0].Res.Ticks {
		t.Fatal("one-worker batch differs from serial run")
	}
}

func TestBatchShardsMatchDerivedSerialRuns(t *testing.T) {
	test := sbTest(t)
	cfg := DefaultConfig().WithSeed(5)
	const n, workers = 301, 3
	shards, err := mustCompile(t, test).RunSyncedBatchCtx(context.Background(), n, ModeUser, cfg, workers)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != workers {
		t.Fatalf("got %d shards, want %d", len(shards), workers)
	}
	total := 0
	for _, sh := range shards {
		if sh.Seed != WorkerSeed(cfg.Seed, sh.Worker) {
			t.Fatalf("worker %d seed = %d, want %d", sh.Worker, sh.Seed, WorkerSeed(cfg.Seed, sh.Worker))
		}
		want, err := runSynced(test, sh.N, ModeUser, cfg.WithSeed(sh.Seed))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Regs, sh.Res.Regs) || want.Ticks != sh.Res.Ticks {
			t.Fatalf("worker %d shard differs from the equivalent serial run", sh.Worker)
		}
		total += sh.N
	}
	if total != n {
		t.Fatalf("shards cover %d iterations, want %d", total, n)
	}
}

func TestBatchClampsWorkersToN(t *testing.T) {
	test := sbTest(t)
	shards, err := mustCompile(t, test).RunSyncedBatchCtx(context.Background(), 2, ModeUser, DefaultConfig(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 2 {
		t.Fatalf("got %d shards for n=2, want 2", len(shards))
	}
}

func TestPerpetualRunnerReuseDeterministic(t *testing.T) {
	pt := mustPerp(t, "sb")
	cp, err := CompilePerpetual(pt)
	if err != nil {
		t.Fatal(err)
	}
	r := NewPerpetualRunner(cp)
	cfg := DefaultConfig().WithSeed(21)
	first, err := r.Run(300, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(77, DefaultConfig().WithSeed(2)); err != nil {
		t.Fatal(err)
	}
	again, err := r.Run(300, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Bufs, again.Bufs) || first.Ticks != again.Ticks {
		t.Fatal("rerun on a reused PerpetualRunner differs from its first run")
	}
	fresh, err := runPerpetual(pt, 300, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.Bufs, again.Bufs) || fresh.Ticks != again.Ticks {
		t.Fatal("reused PerpetualRunner differs from a fresh one")
	}
}
