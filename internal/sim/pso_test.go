package sim

import (
	"testing"

	"perple/internal/core"
	"perple/internal/litmus"
	"perple/internal/memmodel"
)

func psoConfig(seed int64) Config {
	cfg := DefaultConfig().WithSeed(seed)
	cfg.Relaxation = memmodel.PSO
	return cfg
}

func TestConfigRejectsSCRelaxation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Relaxation = memmodel.SC
	if _, err := runSynced(mustSuiteTest(t, "sb"), 10, ModeUser, cfg); err == nil {
		t.Error("SC relaxation accepted; the machine has no SC mode")
	}
}

// TestPSORunsArePSOCompliant: every outcome the PSO machine produces must
// be PSO-allowed per the independent model checkers — the PSO analogue of
// the TSO soundness test.
func TestPSORunsArePSOCompliant(t *testing.T) {
	iters := 300
	if testing.Short() {
		iters = 60
	}
	for _, e := range litmus.Suite() {
		e := e
		t.Run(e.Test.Name, func(t *testing.T) {
			allowed := regKeySet(memmodel.OperationalAllowedSet(e.Test, memmodel.PSO))
			for _, mode := range []Mode{ModeUser, ModeTimebase, ModeNone} {
				res, err := runSynced(e.Test, iters, mode, psoConfig(int64(mode)+500))
				if err != nil {
					t.Fatal(err)
				}
				var scratch [][]int64
				for n := 0; n < iters; n++ {
					scratch = registerFile(res, n, scratch)
					if key := flattenRegs(scratch); !allowed[key] {
						t.Fatalf("mode %v iteration %d produced PSO-forbidden register file %q", mode, n, key)
					}
				}
			}
		})
	}
}

// TestPSOExposesMP: the PSO machine must actually reorder stores — the mp
// target (forbidden under TSO, allowed under PSO) must be observable.
func TestPSOExposesMP(t *testing.T) {
	test := mustSuiteTest(t, "mp")
	res, err := runSynced(test, 3000, ModeTimebase, psoConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	var scratch [][]int64
	for n := 0; n < res.N; n++ {
		scratch = registerFile(res, n, scratch)
		if test.Target.Holds(scratch) {
			hits++
		}
	}
	if hits == 0 {
		t.Error("PSO machine never exposed the mp target in 3000 timebase iterations")
	}
	// The TSO machine must keep it at zero under identical conditions.
	tsoRes, err := runSynced(test, 3000, ModeTimebase, DefaultConfig().WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < tsoRes.N; n++ {
		scratch = registerFile(tsoRes, n, scratch)
		if test.Target.Holds(scratch) {
			t.Fatal("TSO machine exposed the mp target")
		}
	}
}

// TestPSOFenceRestoresOrder: mp+fences must stay invisible even on PSO.
func TestPSOFenceRestoresOrder(t *testing.T) {
	test := mustSuiteTest(t, "mp+fences")
	res, err := runSynced(test, 2000, ModeTimebase, psoConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	var scratch [][]int64
	for n := 0; n < res.N; n++ {
		scratch = registerFile(res, n, scratch)
		if test.Target.Holds(scratch) {
			t.Fatal("fenced message passing reordered on the PSO machine")
		}
	}
}

// TestPSOPerLocationCoherence: same-location store order survives PSO, so
// the decoded per-thread read iterations stay monotone per location.
func TestPSOPerLocationCoherence(t *testing.T) {
	pt := mustPerp(t, "sb")
	const n = 5000
	res, err := runPerpetual(pt, n, psoConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	for _, ti := range pt.LoadThreads {
		prev := int64(-1)
		for i, v := range res.Bufs.Bufs[ti] {
			iter := int64(-1)
			if v != 0 {
				_, it, ok := core.DecodeValue(pt, pt.LoadLoc[ti][i%pt.Reads[ti]], v)
				if !ok {
					t.Fatal("undecodable value on PSO machine")
				}
				iter = it
			}
			if iter < prev {
				t.Fatalf("thread %d read iteration %d after %d under PSO", ti, iter, prev)
			}
			prev = iter
		}
	}
}
