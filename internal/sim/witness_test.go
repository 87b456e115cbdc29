package sim

import (
	"slices"
	"testing"

	"perple/internal/core"
	"perple/internal/litmus"
	"perple/internal/trace"
)

func witnessArrays(w *trace.WitnessSet) (rf, co []int32) {
	return append([]int32(nil), w.RF...), append([]int32(nil), w.Co...)
}

// TestWitnessDeterminism extends the determinism-equivalence suite to
// witness recording: with a fixed seed the emitted trace is
// byte-identical across runs, and identical between a fresh machine and
// a reused one that has run other workloads in between.
func TestWitnessDeterminism(t *testing.T) {
	tc, err := litmus.SuiteTest("mp")
	if err != nil {
		t.Fatal(err)
	}
	ct, err := Compile(tc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig().WithSeed(7)
	cfg.WitnessEvery = 3
	const n = 100

	fresh, err := NewRunner(ct).RunSynced(n, ModeUser, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rfWant, coWant := witnessArrays(fresh.Witnesses)
	if fresh.Witnesses.Slots != (n+2)/3 {
		t.Fatalf("Slots = %d, want %d", fresh.Witnesses.Slots, (n+2)/3)
	}

	// A second fresh machine replays the same trace.
	fresh2, err := NewRunner(ct).RunSynced(n, ModeUser, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rf2, co2 := witnessArrays(fresh2.Witnesses)
	if !slices.Equal(rfWant, rf2) || !slices.Equal(coWant, co2) {
		t.Fatal("witness trace differs between two fresh machines with equal seeds")
	}

	// A reused machine — after unrelated runs with different seeds,
	// sizes, modes and sampling — replays it too.
	r := NewRunner(ct)
	if _, err := r.RunSynced(17, ModeNone, DefaultConfig().WithSeed(99)); err != nil {
		t.Fatal(err)
	}
	other := DefaultConfig().WithSeed(3)
	other.WitnessEvery = 1
	if _, err := r.RunSynced(250, ModeTimebase, other); err != nil {
		t.Fatal(err)
	}
	reused, err := r.RunSynced(n, ModeUser, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rf3, co3 := witnessArrays(reused.Witnesses)
	if !slices.Equal(rfWant, rf3) || !slices.Equal(coWant, co3) {
		t.Fatal("witness trace differs between fresh and reused machines")
	}
}

// TestWitnessRecordingDoesNotPerturbRun: recording must be a pure
// observer — same seed with recording on and off yields identical
// registers, memory and simulated time, across modes and relaxations.
func TestWitnessRecordingDoesNotPerturbRun(t *testing.T) {
	for _, name := range []string{"sb", "mp"} {
		tc, err := litmus.SuiteTest(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, preset := range []string{"default", "pso"} {
			cfg, err := Preset(preset)
			if err != nil {
				t.Fatal(err)
			}
			cfg = cfg.WithSeed(21)
			for _, mode := range []Mode{ModeUser, ModeNone} {
				off, err := runSynced(tc, 200, mode, cfg)
				if err != nil {
					t.Fatal(err)
				}
				on := cfg
				on.WitnessEvery = 2
				got, err := runSynced(tc, 200, mode, on)
				if err != nil {
					t.Fatal(err)
				}
				if got.Ticks != off.Ticks || !slices.Equal(got.Mem, off.Mem) {
					t.Fatalf("%s/%s/%s: memory or ticks perturbed by witness recording", name, preset, mode)
				}
				for ti := range off.Regs {
					if !slices.Equal(got.Regs[ti], off.Regs[ti]) {
						t.Fatalf("%s/%s/%s: registers of thread %d perturbed by witness recording", name, preset, mode, ti)
					}
				}
				if off.Witnesses != nil || got.Witnesses == nil {
					t.Fatalf("%s/%s/%s: Witnesses presence wrong (off=%v on=%v)", name, preset, mode, off.Witnesses, got.Witnesses)
				}
			}
		}
	}
}

// TestWitnessSamplingConsistent: because recording is a pure observer,
// a sampled run's slot s must equal a fully-recorded run's slot s·k.
func TestWitnessSamplingConsistent(t *testing.T) {
	tc, err := litmus.SuiteTest("sb")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig().WithSeed(5)
	full := cfg
	full.WitnessEvery = 1
	sampled := cfg
	sampled.WitnessEvery = 4
	rf, err := runSynced(tc, 60, ModeUser, full)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := runSynced(tc, 60, ModeUser, sampled)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < rs.Witnesses.Slots; s++ {
		fs := rs.Witnesses.Iter(s) // == slot index in the every-1 run
		if !slices.Equal(rs.Witnesses.RFAt(s), rf.Witnesses.RFAt(fs)) ||
			!slices.Equal(rs.Witnesses.CoAt(s), rf.Witnesses.CoAt(fs)) {
			t.Fatalf("sampled slot %d differs from full slot %d", s, fs)
		}
	}
}

// TestPerpetualRejectsWitnessRecording: witness recording is defined
// for synced runs only (perpetual iterations share memory cells, so
// per-iteration coherence orders are not separable).
func TestPerpetualRejectsWitnessRecording(t *testing.T) {
	tc, err := litmus.SuiteTest("sb")
	if err != nil {
		t.Fatal(err)
	}
	pt, err := core.Convert(tc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.WitnessEvery = 1
	if _, err := runPerpetual(pt, 10, cfg); err == nil {
		t.Fatal("perpetual run accepted WitnessEvery > 0")
	}
}

// TestConfigWitnessEveryValidation: negative strides are rejected.
func TestConfigWitnessEveryValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WitnessEvery = -1
	if _, err := runSynced(mustSuite(t, "sb"), 1, ModeUser, cfg); err == nil {
		t.Fatal("negative WitnessEvery accepted")
	}
}

func mustSuite(t *testing.T, name string) *litmus.Test {
	t.Helper()
	tc, err := litmus.SuiteTest(name)
	if err != nil {
		t.Fatal(err)
	}
	return tc
}
