package sim

import (
	"testing"

	"perple/internal/analysis/hotpath"
	"perple/internal/litmus"
	"perple/internal/memmodel"
)

// TestHotpathAllocs is this package's half of the hotalloc contract:
// every //perple:hotpath annotation in internal/sim names one of the
// cover ids below, and each exerciser must run its covered functions at
// zero allocations per run on a warmed Runner. The static side
// (perple-vet's hotalloc pass) rejects allocation-causing constructs at
// vet time; this sweep catches what the AST rules cannot see (escape
// decisions, growth in reused state).
func TestHotpathAllocs(t *testing.T) {
	compile := func(name string) *CompiledTest {
		test, err := litmus.SuiteTest(name)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := Compile(test)
		if err != nil {
			t.Fatal(err)
		}
		return ct
	}
	sb, mpFences := compile("sb"), compile("mp+fences")
	cfg := DefaultConfig().WithSeed(7)
	psoCfg := cfg
	psoCfg.Relaxation = memmodel.PSO

	// One warmed Runner per exerciser: reused buffers are sized by the
	// first (warmup) call and must not grow during measurement.
	run := func(ct *CompiledTest, mode Mode, cfg Config) func() {
		r := NewRunner(ct)
		return func() {
			if _, err := r.RunSynced(200, mode, cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	hotpath.Verify(t, ".", map[string]func(){
		"sim-synced-user": run(sb, ModeUser, cfg), // barriered loop: draw, store/load/fence, drains
		"sim-synced-free": run(sb, ModeNone, cfg), // free-running loop: minThreadBelowIter
		// Per-cell drain order on a fenced two-location test: PSO fence,
		// chain-head heap drains and same-cell forwarding.
		"sim-synced-pso": run(mpFences, ModeUser, psoCfg),
	})
}
