package experiments

import (
	"io"
	"strings"
	"testing"

	"perple/internal/litmus"
)

// Experiment tests run at reduced iteration counts; they assert the
// paper's qualitative shapes (who wins, what is zero), not magnitudes.

func TestTableIIExperiment(t *testing.T) {
	var buf strings.Builder
	res, err := TableII(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 34 {
		t.Errorf("rows = %d, want 34", len(res.Rows))
	}
	if res.Mismatches != 0 {
		t.Errorf("classification mismatches = %d, want 0", res.Mismatches)
	}
	for _, r := range res.Rows {
		if r.Claimed && r.SCAllowed {
			t.Errorf("%s: allowed-group target is SC-allowed", r.Name)
		}
	}
	out := buf.String()
	if !strings.Contains(out, "mismatches vs Table II: 0") {
		t.Errorf("report missing zero-mismatch line:\n%s", out)
	}
}

func TestFig9Experiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var buf strings.Builder
	res, err := Fig9(&buf, Options{N: 800})
	if err != nil {
		t.Fatal(err)
	}
	if res.FalsePositives != 0 {
		t.Errorf("false positives = %d, want 0", res.FalsePositives)
	}
	if len(res.MissedAllowed) != 0 {
		t.Errorf("PerpLE missed allowed targets: %v", res.MissedAllowed)
	}
	// The exhaustive counter beats litmus7's user, userfence, pthread and
	// none modes on every allowed test. Timebase — litmus7's best-aligned
	// mode — may edge it out on isolated tests on this substrate (the
	// paper grants the analogous exception for the heuristic on iwp24 and
	// rfi013); allow at most two.
	timebaseWins := 0
	for i, name := range res.Tests {
		if !res.Allowed[i] {
			continue
		}
		exh := res.Counts[name][ToolPerpLEExh]
		for _, tool := range Litmus7Tools {
			if res.Counts[name][tool] < exh {
				continue
			}
			if tool == ToolLitmus7Timebase {
				timebaseWins++
				continue
			}
			t.Errorf("%s: litmus7 %v (%d) >= perple-exh (%d)",
				name, tool, res.Counts[name][tool], exh)
		}
	}
	if timebaseWins > 2 {
		t.Errorf("timebase beat the exhaustive counter on %d tests, want <= 2", timebaseWins)
	}
}

func TestFig10Experiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var buf strings.Builder
	res, err := Fig10(&buf, Options{N: 1500})
	if err != nil {
		t.Fatal(err)
	}
	// PerpLE heuristic is always the fastest tool (speedup >= all others
	// per test).
	for _, name := range res.Tests {
		heur := res.Speedup[name][ToolPerpLEHeur]
		for _, tool := range Tools {
			if tool == ToolPerpLEHeur {
				continue
			}
			if res.Speedup[name][tool] > heur {
				t.Errorf("%s: %v speedup %.2f exceeds heuristic %.2f",
					name, tool, res.Speedup[name][tool], heur)
			}
		}
		if got := res.Speedup[name][ToolLitmus7User]; got != 1 {
			t.Errorf("%s: user-mode self-speedup = %g, want 1", name, got)
		}
	}
	// Mode runtime ordering: pthread slowest, then timebase, then
	// user/userfence, then none (as geomeans).
	if !(res.GeoSpeedup[ToolLitmus7Pthread] < res.GeoSpeedup[ToolLitmus7Timebase] &&
		res.GeoSpeedup[ToolLitmus7Timebase] < res.GeoSpeedup[ToolLitmus7User] &&
		res.GeoSpeedup[ToolLitmus7User] < res.GeoSpeedup[ToolLitmus7None]) {
		t.Errorf("mode ordering wrong: %v", res.GeoSpeedup)
	}
	// The heuristic counter is orders of magnitude faster than the
	// exhaustive one (paper: 305x at 10k iterations).
	if res.HeurOverExh < 20 {
		t.Errorf("heuristic over exhaustive = %.1fx, want substantial", res.HeurOverExh)
	}
}

// improvementAt returns the improvement of a tool at an iteration
// count in a Fig 11 result, or 0 when absent.
func improvementAt(r *Fig11Result, n int, tool Tool) float64 {
	for _, p := range r.Points {
		if p.N == n && p.Tool == tool {
			return p.Improvement
		}
	}
	return 0
}

func TestFig11Experiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var buf strings.Builder
	res, err := Fig11(&buf, Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1000, 10000} {
		perple := improvementAt(res, n, ToolPerpLEHeur)
		if perple < 10 {
			t.Errorf("N=%d: PerpLE improvement %.1fx, want orders above baseline", n, perple)
		}
		for _, tool := range Litmus7Tools {
			if imp := improvementAt(res, n, tool); imp >= perple {
				t.Errorf("N=%d: %v improvement %.1fx >= PerpLE %.1fx", n, tool, imp, perple)
			}
		}
		if user := improvementAt(res, n, ToolLitmus7User); user != 1 {
			t.Errorf("N=%d: user self-improvement = %g, want 1", n, user)
		}
	}
}

func TestFig12Experiment(t *testing.T) {
	var buf strings.Builder
	res, err := Fig12(&buf, Options{N: 30000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples == 0 {
		t.Fatal("no skew samples")
	}
	// Two-sided, wide, and densest near zero.
	if res.MinSkew >= 0 || res.MaxSkew <= 0 {
		t.Errorf("skew range [%d,%d] not two-sided", res.MinSkew, res.MaxSkew)
	}
	if res.MaxSkew-res.MinSkew < 50 {
		t.Errorf("skew range [%d,%d] too narrow to be 'very wide'", res.MinSkew, res.MaxSkew)
	}
	// Density near zero exceeds the average density.
	avg := 1.0 / float64(res.MaxSkew-res.MinSkew+1)
	nearDensity := res.ZeroBand / 21.0
	if nearDensity <= avg {
		t.Errorf("density near zero %.2g not above average %.2g", nearDensity, avg)
	}
}

func TestFig13Experiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var buf strings.Builder
	res, err := Fig13(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// PerpLE-heuristic's variety matches or beats every litmus7 mode.
	for _, test := range Fig13Tests {
		heur := res.Variety[test][ToolPerpLEHeur]
		for _, tool := range Litmus7Tools {
			if res.Variety[test][tool] > heur {
				t.Errorf("%s: %v variety %d exceeds PerpLE %d",
					test, tool, res.Variety[test][tool], heur)
			}
		}
	}
	// TSO-forbidden outcomes are never observed by anyone.
	for _, row := range res.Rows {
		if row.TSOAllowed {
			continue
		}
		for tool, c := range row.Counts {
			if c != 0 {
				t.Errorf("%s %v: forbidden outcome %v observed %d times",
					row.Test, tool, row.Outcome, c)
			}
		}
	}
}

func TestAccuracyExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var buf strings.Builder
	res, err := HeuristicAccuracy(&buf, Options{N: 1500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Disagrees != 0 {
		t.Errorf("heuristic accuracy disagreements = %d, want 0 (Section VII-D)", res.Disagrees)
	}
	if len(res.Rows) != len(litmus.Suite()) {
		t.Errorf("rows = %d, want %d", len(res.Rows), len(litmus.Suite()))
	}
}

func TestOverallExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var buf strings.Builder
	res, err := Overall(&buf, Options{N: 1500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Convertible+res.NonConvertible != 88 {
		t.Errorf("corpus = %d+%d, want 88", res.Convertible, res.NonConvertible)
	}
	if res.CampaignSpeedup <= 1.1 {
		t.Errorf("campaign speedup = %.2fx, want > 1.1x (paper: 1.47x)", res.CampaignSpeedup)
	}
	if res.CampaignSpeedup > 3 {
		t.Errorf("campaign speedup = %.2fx suspiciously high (paper: 1.47x)", res.CampaignSpeedup)
	}
	if res.DetectionImprovement < 10 {
		t.Errorf("detection improvement = %.0fx, want orders above 1", res.DetectionImprovement)
	}
}

func TestToolStringsAndModes(t *testing.T) {
	for _, tool := range Tools {
		if tool.String() == "" || strings.HasPrefix(tool.String(), "Tool(") {
			t.Errorf("tool %d has no name", int(tool))
		}
	}
	for _, tool := range Litmus7Tools {
		if _, ok := tool.Mode(); !ok {
			t.Errorf("%v has no mode", tool)
		}
	}
	if _, ok := ToolPerpLEHeur.Mode(); ok {
		t.Error("PerpLE tool should have no litmus7 mode")
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.seed() != 1 {
		t.Errorf("default seed = %d", o.seed())
	}
	if o.n(10) != 10 {
		t.Errorf("default n passthrough failed")
	}
	o.N = 5
	if o.n(10) != 5 {
		t.Errorf("explicit n ignored")
	}
	if cap := (Options{}).exhaustiveCap(2, 10000); cap != 4000 {
		t.Errorf("TL2 default cap = %d", cap)
	}
	if cap := (Options{}).exhaustiveCap(3, 10000); cap != 300 {
		t.Errorf("TL3 default cap = %d", cap)
	}
	if cap := (Options{ExhaustiveCap2: -1}).exhaustiveCap(2, 123); cap != 123 {
		t.Errorf("uncapped = %d, want 123", cap)
	}
}

// drain writers for coverage of wrap-style helpers.
var _ = io.Discard
