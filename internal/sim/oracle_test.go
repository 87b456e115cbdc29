package sim

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"perple/internal/axiom"
	"perple/internal/litmus"
	"perple/internal/memmodel"
)

// reportDivergences fails the test with the full triage rendering for
// each divergence — the axiomatic witness/state table next to the
// simulator trace.
func reportDivergences(t *testing.T, divs []Divergence, rep *axiom.Report, iters int, mode Mode, cfg Config) {
	t.Helper()
	for i := range divs {
		t.Errorf("%s", Explain(&divs[i], rep, iters, mode, cfg))
	}
}

// TestSuiteFilesDifferential is the curated-suite differential oracle: it
// parses every .litmus file in testdata/suite (exercising the parser
// path, not the in-code tables), classifies it axiomatically, and checks
// that the simulator never produces a TSO-forbidden state and reaches
// every SC-allowed state with drains disabled.
func TestSuiteFilesDifferential(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "suite", "*.litmus"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no suite files found: %v", err)
	}
	cfg := DefaultConfig()
	const iters = 300
	const scBudget = 3000
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		tc, err := litmus.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		rep, err := axiom.Analyze(tc)
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		divs, err := CheckTSO(tc, rep, iters, ModeTimebase, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		reportDivergences(t, divs, rep, iters, ModeTimebase, cfg)
		scDivs, err := CheckSCCoverage(tc, rep, scBudget, ModeUser, SCCoverageConfig(cfg))
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		reportDivergences(t, scDivs, rep, iters, ModeTimebase, cfg)
	}
}

// TestGeneratedCorpusDifferential is the fixed-seed 200-test diy corpus
// differential (satellite of ISSUE 4): axiom-vs-simulator agreement over
// randomly generated tests sized to the exact-enumeration cutoff. The
// seed is fixed, the simulator is deterministic given its seed, and the
// axiomatic enumeration is exhaustive, so a pass is stable across runs.
func TestGeneratedCorpusDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1009))
	cfg := litmus.GenConfig{
		MinThreads: 2,
		MaxThreads: 4,
		MaxInstrs:  2,
		Locs:       []litmus.Loc{"x", "y", "z"},
		FenceProb:  0.2,
	}
	simCfg := DefaultConfig()
	iters := 120
	if testing.Short() {
		iters = 40
	}
	for i := 0; i < 200; i++ {
		tc := litmus.Generate(rng, cfg, fmt.Sprintf("oracle%03d", i))
		rep, err := axiom.Analyze(tc)
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		divs, err := CheckTSO(tc, rep, iters, ModeTimebase, simCfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		reportDivergences(t, divs, rep, iters, ModeTimebase, simCfg)
	}
}

// TestCycleCorpusDifferential covers diy cycle tests (every edge kind)
// with both oracle directions.
func TestCycleCorpusDifferential(t *testing.T) {
	cycles := [][]litmus.EdgeSpec{
		{litmus.PodWR, litmus.Fre, litmus.PodWR, litmus.Fre},
		{litmus.PodWW, litmus.Rfe, litmus.PodRR, litmus.Fre},
		{litmus.PodRW, litmus.Rfe, litmus.PodRW, litmus.Rfe},
		{litmus.Rfe, litmus.PodRW, litmus.Rfe, litmus.PodRR, litmus.Fre},
		{litmus.FencedWR, litmus.Fre, litmus.FencedWR, litmus.Fre},
		{litmus.Wse, litmus.PodWW, litmus.Wse, litmus.PodWW},
	}
	cfg := DefaultConfig()
	const iters = 300
	for i, edges := range cycles {
		tc, err := litmus.FromCycle(fmt.Sprintf("odiy%02d", i), edges...)
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		rep, err := axiom.Analyze(tc)
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		divs, err := CheckTSO(tc, rep, iters, ModeTimebase, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		reportDivergences(t, divs, rep, iters, ModeTimebase, cfg)
		scDivs, err := CheckSCCoverage(tc, rep, 3000, ModeUser, SCCoverageConfig(cfg))
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		reportDivergences(t, scDivs, rep, iters, ModeTimebase, cfg)
	}
}

// TestOracleDetectsPSO is the oracle's self-test: a machine configured as
// PSO (store-store reordering — a conformance violation for hardware
// claiming TSO) must trip the forbidden-state check on message passing,
// and the explanation must carry both the allowed-state table and a
// simulator trace.
func TestOracleDetectsPSO(t *testing.T) {
	tc, err := litmus.SuiteTest("mp")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := axiom.Analyze(tc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Relaxation = memmodel.PSO
	var divs []Divergence
	iters := 0
	for _, n := range []int{500, 2000, 8000} {
		iters = n
		divs, err = CheckTSO(tc, rep, n, ModeTimebase, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(divs) > 0 {
			break
		}
	}
	if len(divs) == 0 {
		t.Fatal("PSO machine never produced a TSO-forbidden mp state; oracle cannot detect conformance bugs")
	}
	out := Explain(&divs[0], rep, iters, ModeTimebase, cfg)
	for _, want := range []string{"DIVERGENCE", "forbidden", "allowed states", "trace"} {
		if !strings.Contains(out, want) {
			t.Errorf("explanation missing %q:\n%s", want, out)
		}
	}
}

// TestSCUnreachableReporting: a zero-iteration budget leaves every
// SC-allowed state uncovered; the divergences must carry SC witnesses and
// render them.
func TestSCUnreachableReporting(t *testing.T) {
	tc, err := litmus.SuiteTest("sb")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := axiom.Analyze(tc)
	if err != nil {
		t.Fatal(err)
	}
	divs, err := CheckSCCoverage(tc, rep, 0, ModeTimebase, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(divs) != len(rep.SCResults()) {
		t.Fatalf("got %d sc-unreachable divergences, want %d", len(divs), len(rep.SCResults()))
	}
	for i := range divs {
		if divs[i].Witness == nil {
			t.Fatal("sc-unreachable divergence without witness")
		}
	}
	out := Explain(&divs[0], rep, 10, ModeTimebase, DefaultConfig())
	for _, want := range []string{"unreachable with drains disabled", "witness", "rf:"} {
		if !strings.Contains(out, want) {
			t.Errorf("explanation missing %q:\n%s", want, out)
		}
	}
}
