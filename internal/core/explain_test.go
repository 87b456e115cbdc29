package core

import (
	"strings"
	"testing"

	"perple/internal/litmus"
)

func TestExplainSBTarget(t *testing.T) {
	pt := mustConvert(t, "sb")
	po, ex, err := Explain(pt, pt.Orig.Target)
	if err != nil {
		t.Fatal(err)
	}
	if po.Unsatisfiable {
		t.Fatal("sb target should be satisfiable")
	}
	if len(ex.Step1) != 2 || len(ex.Step4) != 2 {
		t.Fatalf("steps 1/4 have %d/%d rows, want 2/2", len(ex.Step1), len(ex.Step4))
	}
	out := ex.String()
	// The narration carries the Figure 6 structure.
	for _, want := range []string{
		"fr — the load happened before",
		"buf0[n0] <= 1*n1+0",
		"buf1[n1] <= 1*n0+0",
		"fr pin",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explanation missing %q:\n%s", want, out)
		}
	}
}

func TestExplainRFOutcome(t *testing.T) {
	pt := mustConvert(t, "sb")
	o := litmus.Outcome{Conds: []litmus.Cond{
		{Thread: 0, Reg: 0, Value: 1},
		{Thread: 1, Reg: 0, Value: 1},
	}}
	_, ex, err := Explain(pt, o)
	if err != nil {
		t.Fatal(err)
	}
	out := ex.String()
	if !strings.Contains(out, "rf — the load read store") {
		t.Errorf("rf narration missing:\n%s", out)
	}
	if !strings.Contains(out, "rf pin") {
		t.Errorf("rf pin narration missing:\n%s", out)
	}
}

func TestExplainMPExistential(t *testing.T) {
	pt := mustConvert(t, "mp")
	_, ex, err := Explain(pt, pt.Orig.Target)
	if err != nil {
		t.Fatal(err)
	}
	out := ex.String()
	// Thread 0 is store-only: existential unless pinned. The mp target's
	// plan pins it, so no existential note; but the narration must name
	// the pin.
	if !strings.Contains(out, "rf pin") {
		t.Errorf("mp pin narration missing:\n%s", out)
	}
}

func TestExplainCoherenceRejection(t *testing.T) {
	pt := mustConvert(t, "co-iriw")
	po, ex, err := Explain(pt, pt.Orig.Target)
	if err != nil {
		t.Fatal(err)
	}
	if !po.Unsatisfiable || !po.CoherenceViolation {
		t.Fatal("co-iriw target should be a coherence rejection")
	}
	if !strings.Contains(ex.String(), "write-serialization cycle") {
		t.Errorf("coherence note missing:\n%s", ex.String())
	}
}

func TestExplainUnsatisfiable(t *testing.T) {
	pt := mustConvert(t, "sb")
	o := litmus.Outcome{Conds: []litmus.Cond{{Thread: 0, Reg: 0, Value: 42}}}
	po, ex, err := Explain(pt, o)
	if err != nil {
		t.Fatal(err)
	}
	if !po.Unsatisfiable {
		t.Fatal("expected unsatisfiable")
	}
	if !strings.Contains(ex.String(), "no thread stores") {
		t.Errorf("unsatisfiable note missing:\n%s", ex.String())
	}
}

func TestExplainDiagonal(t *testing.T) {
	pt := mustConvert(t, "iriw")
	_, ex, err := Explain(pt, pt.Orig.Target)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.String(), "diagonal fallback") {
		t.Errorf("iriw explanation should mention the diagonal fallback:\n%s", ex.String())
	}
}

func TestExplainWholeSuite(t *testing.T) {
	for _, e := range litmus.Suite() {
		pt, err := Convert(e.Test)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := Explain(pt, e.Test.Target); err != nil {
			t.Errorf("%s: %v", e.Test.Name, err)
		}
	}
}
