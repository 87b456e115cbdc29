package core

import (
	"strings"
	"testing"

	"perple/internal/litmus"
)

func mustConvert(t *testing.T, name string) *PerpetualTest {
	t.Helper()
	test, err := litmus.SuiteTest(name)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := Convert(test)
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

func TestConvertSB(t *testing.T) {
	pt := mustConvert(t, "sb")
	if pt.K["x"] != 1 || pt.K["y"] != 1 {
		t.Errorf("k_x=%d k_y=%d, want 1 1", pt.K["x"], pt.K["y"])
	}
	if len(pt.Stores) != 2 {
		t.Fatalf("%d sequence stores, want 2", len(pt.Stores))
	}
	// Thread 0 stores n+1 to x: K=1, A=1.
	var s []SeqStore
	for _, st := range pt.Stores {
		if st.Ref.Thread == 0 {
			s = append(s, st)
		}
	}
	if len(s) != 1 || s[0].K != 1 || s[0].A != 1 || s[0].Loc != "x" {
		t.Errorf("thread 0 store = %+v, want x: 1*n+1", s)
	}
	if got := s[0].Value(5); got != 6 {
		t.Errorf("store value at n=5 is %d, want 6", got)
	}
	if pt.Reads[0] != 1 || pt.Reads[1] != 1 {
		t.Errorf("reads = %v, want [1 1]", pt.Reads)
	}
	if len(pt.LoadThreads) != 2 {
		t.Errorf("load threads = %v, want [0 1]", pt.LoadThreads)
	}
	if slot, ok := pt.SlotOf(0, 0); !ok || slot != 0 {
		t.Errorf("slot of 0:r0 = %d,%v", slot, ok)
	}
	if _, ok := pt.SlotOf(0, 5); ok {
		t.Error("slot of unknown register should not resolve")
	}
}

func TestConvertValueNormalizationAmd3(t *testing.T) {
	pt := mustConvert(t, "amd3")
	if pt.K["x"] != 2 {
		t.Fatalf("k_x = %d, want 2", pt.K["x"])
	}
	s1 := pt.StoreForValue("x", 1)
	s2 := pt.StoreForValue("x", 2)
	if s1 == nil || s2 == nil {
		t.Fatal("missing sequence stores for x")
	}
	if s1.A != 1 || s2.A != 2 || s1.K != 2 || s2.K != 2 {
		t.Errorf("offsets: a1=%d a2=%d k=%d,%d; want 1 2 2 2", s1.A, s2.A, s1.K, s2.K)
	}
	// Sequences 2n+1 and 2n+2 are disjoint and decode uniquely.
	for n := int64(0); n < 50; n++ {
		v1, v2 := s1.Value(n), s2.Value(n)
		if d, ok := s1.DecodeIteration(v1); !ok || d != n {
			t.Fatalf("decode(%d) via s1 = %d,%v", v1, d, ok)
		}
		if _, ok := s1.DecodeIteration(v2); ok {
			t.Fatalf("s1 wrongly decodes s2's value %d", v2)
		}
		if d, ok := s2.DecodeIteration(v2); !ok || d != n {
			t.Fatalf("decode(%d) via s2 = %d,%v", v2, d, ok)
		}
	}
	if _, ok := s1.DecodeIteration(0); ok {
		t.Error("initial value 0 must not decode")
	}
}

func TestConvertRejectsNonZeroInit(t *testing.T) {
	test := &litmus.Test{
		Name:    "bad-init",
		Threads: []litmus.Thread{{Instrs: []litmus.Instr{litmus.Store("x", 1), litmus.Load(0, "x")}}},
		Init:    map[litmus.Loc]int64{"x": 7},
		Target:  litmus.Outcome{Conds: []litmus.Cond{{Thread: 0, Reg: 0, Value: 1}}},
	}
	if _, err := Convert(test); err == nil || !strings.Contains(err.Error(), "zero-initialized") {
		t.Errorf("Convert accepted non-zero init: %v", err)
	}
}

func TestConvertWholeSuite(t *testing.T) {
	for _, e := range litmus.Suite() {
		pt, err := Convert(e.Test)
		if err != nil {
			t.Errorf("%s: %v", e.Test.Name, err)
			continue
		}
		if got := pt.TL(); got != e.Test.TL() {
			t.Errorf("%s: TL=%d, want %d", e.Test.Name, got, e.Test.TL())
		}
		if _, err := ConvertOutcome(pt, e.Test.Target); err != nil {
			t.Errorf("%s: target conversion failed: %v", e.Test.Name, err)
		}
		if _, err := ConvertAllOutcomes(pt); err != nil {
			t.Errorf("%s: outcome-space conversion failed: %v", e.Test.Name, err)
		}
	}
}

func TestNonConvertibleOutcomesRejected(t *testing.T) {
	// The paper's 34/88 split: tests with final-memory targets cannot be
	// converted (Section V-C).
	for _, test := range litmus.NonConvertible() {
		pt, err := Convert(test)
		if err != nil {
			t.Errorf("%s: test conversion failed: %v", test.Name, err)
			continue
		}
		_, err = ConvertOutcome(pt, test.Target)
		var nc *ErrNotConvertible
		if err == nil {
			t.Errorf("%s: memory-condition target was converted", test.Name)
			continue
		}
		if !strings.Contains(err.Error(), "not convertible") {
			t.Errorf("%s: unexpected error %v", test.Name, err)
		}
		if asNotConvertible(err, &nc); nc == nil {
			t.Errorf("%s: error is %T, want *ErrNotConvertible", test.Name, err)
		}
	}
}

func asNotConvertible(err error, out **ErrNotConvertible) {
	if e, ok := err.(*ErrNotConvertible); ok {
		*out = e
	}
}

// TestFig6ExhaustiveConditions checks that the converter reproduces the
// paper's Figure 6 step-4 inequalities for all four sb outcomes:
//
//	p_out_0: buf0[n] <= m   && buf1[m] <= n
//	p_out_1: buf0[n] <= m   && buf1[m] >= n+1
//	p_out_2: buf0[n] >= m+1 && buf1[m] <= n
//	p_out_3: buf0[n] >= m+1 && buf1[m] >= n+1
func TestFig6ExhaustiveConditions(t *testing.T) {
	pt := mustConvert(t, "sb")
	type want struct {
		ref BufRef
		rel Rel
		v   int // iteration variable's thread
	}
	// Thread 0 loads y (stored by thread 1), thread 1 loads x (stored by
	// thread 0): a buf0 constraint's variable is m (thread 1) and a buf1
	// constraint's variable is n (thread 0).
	cases := []struct {
		r0, r1 int64 // original outcome values
		want   [2]want
	}{
		{0, 0, [2]want{ // buf0[n] <= m      && buf1[m] <= n
			{BufRef{0, 0}, FR, 1}, {BufRef{1, 0}, FR, 0}}},
		{0, 1, [2]want{ // buf0[n] <= m      && buf1[m] >= n+1
			{BufRef{0, 0}, FR, 1}, {BufRef{1, 0}, RF, 0}}},
		{1, 0, [2]want{ // buf0[n] >= m+1    && buf1[m] <= n
			{BufRef{0, 0}, RF, 1}, {BufRef{1, 0}, FR, 0}}},
		{1, 1, [2]want{ // buf0[n] >= m+1    && buf1[m] >= n+1
			{BufRef{0, 0}, RF, 1}, {BufRef{1, 0}, RF, 0}}},
	}
	for _, tc := range cases {
		o := litmus.Outcome{Conds: []litmus.Cond{
			{Thread: 0, Reg: 0, Value: tc.r0},
			{Thread: 1, Reg: 0, Value: tc.r1},
		}}
		po, err := ConvertOutcome(pt, o)
		if err != nil {
			t.Fatalf("(%d,%d): %v", tc.r0, tc.r1, err)
		}
		if po.Unsatisfiable {
			t.Fatalf("(%d,%d): wrongly unsatisfiable", tc.r0, tc.r1)
		}
		if len(po.Constraints) != 2 {
			t.Fatalf("(%d,%d): %d constraints, want 2: %v", tc.r0, tc.r1, len(po.Constraints), po)
		}
		for i, w := range tc.want {
			got := po.Constraints[i]
			if got.Ref != w.ref || got.Rel != w.rel || got.Var != w.v {
				t.Errorf("(%d,%d) constraint %d = %+v, want ref %v rel %v var %d",
					tc.r0, tc.r1, i, got, w.ref, w.rel, w.v)
			}
			// sb sequences are K=1, A=1 (k_mem = 1 per location).
			if got.K != 1 || got.A != 1 {
				t.Errorf("(%d,%d) constraint %d has K=%d A=%d, want 1 1", tc.r0, tc.r1, i, got.K, got.A)
			}
		}
		if len(po.ExistVars) != 0 {
			t.Errorf("(%d,%d): unexpected existential vars %v", tc.r0, tc.r1, po.ExistVars)
		}
	}
}

// TestFig8HeuristicPlans checks the substitution step 5 of Figure 8: for
// every sb outcome the heuristic pins m (thread 1's index) from the
// thread-0 buf value — rf outcomes decode m = buf0[n] − 1, fr outcomes
// take the tightest m = buf0[n].
func TestFig8HeuristicPlans(t *testing.T) {
	pt := mustConvert(t, "sb")
	cases := []struct {
		r0, r1 int64
		kind   PinKind
	}{
		{0, 0, PinFR}, // m := buf0[n]
		{0, 1, PinFR}, // m := buf0[n]
		{1, 0, PinRF}, // m := buf0[n] - 1
		{1, 1, PinRF}, // m := buf0[n] - 1
	}
	for _, tc := range cases {
		o := litmus.Outcome{Conds: []litmus.Cond{
			{Thread: 0, Reg: 0, Value: tc.r0},
			{Thread: 1, Reg: 0, Value: tc.r1},
		}}
		po, err := ConvertOutcome(pt, o)
		if err != nil {
			t.Fatal(err)
		}
		if len(po.Pins) != 1 {
			t.Fatalf("(%d,%d): %d pins, want 1: %+v", tc.r0, tc.r1, len(po.Pins), po.Pins)
		}
		p := po.Pins[0]
		if p.Var != 1 || p.Kind != tc.kind {
			t.Errorf("(%d,%d): pin = %+v, want var 1 kind %v", tc.r0, tc.r1, p, tc.kind)
		}
		// The pin's source constraint must reference thread 0's buffer.
		if po.Constraints[p.Constraint].Ref.Thread != 0 {
			t.Errorf("(%d,%d): pin constraint reads thread %d, want 0",
				tc.r0, tc.r1, po.Constraints[p.Constraint].Ref.Thread)
		}
	}
}

// TestMPHeuristicPin: with a single load thread (mp), the store thread's
// variable is existential and the paper's substitution pins it from the
// flag read.
func TestMPHeuristicPin(t *testing.T) {
	pt := mustConvert(t, "mp")
	po, err := ConvertOutcome(pt, pt.Orig.Target) // 1:r0=1 && 1:r1=0
	if err != nil {
		t.Fatal(err)
	}
	if len(po.ExistVars) != 1 || po.ExistVars[0] != 0 {
		t.Fatalf("exist vars = %v, want [0]", po.ExistVars)
	}
	if len(po.Pins) != 1 || po.Pins[0].Var != 0 || po.Pins[0].Kind != PinRF {
		t.Fatalf("pins = %+v, want one rf pin of thread 0", po.Pins)
	}
	if len(po.FrameVars) != 1 || po.FrameVars[0] != 1 {
		t.Fatalf("frame vars = %v, want [1]", po.FrameVars)
	}
}

// TestIriwDiagonalFallback: nothing observes iriw's second reader, so its
// frame variable must fall back to the diagonal.
func TestIriwDiagonalFallback(t *testing.T) {
	pt := mustConvert(t, "iriw")
	po, err := ConvertOutcome(pt, pt.Orig.Target)
	if err != nil {
		t.Fatal(err)
	}
	var diag *Pin
	for i := range po.Pins {
		if po.Pins[i].Kind == PinDiagonal {
			diag = &po.Pins[i]
		}
	}
	if diag == nil {
		t.Fatalf("no diagonal pin in plan %+v", po.Pins)
	}
	if diag.Var != 3 {
		t.Errorf("diagonal pin on thread %d, want 3 (second reader)", diag.Var)
	}
}

func TestUnsatisfiableOutcome(t *testing.T) {
	pt := mustConvert(t, "sb")
	// No thread stores 9 to y.
	o := litmus.Outcome{Conds: []litmus.Cond{{Thread: 0, Reg: 0, Value: 9}}}
	po, err := ConvertOutcome(pt, o)
	if err != nil {
		t.Fatal(err)
	}
	if !po.Unsatisfiable {
		t.Error("outcome expecting an unstored value should be unsatisfiable")
	}
	if po.String() != "false" {
		t.Errorf("unsatisfiable outcome renders as %q", po.String())
	}
}

func TestPerpetualOutcomeString(t *testing.T) {
	pt := mustConvert(t, "sb")
	po, err := ConvertOutcome(pt, pt.Orig.Target)
	if err != nil {
		t.Fatal(err)
	}
	s := po.String()
	// The sb target renders as Figure 6's p_out_0 conjunction.
	if !strings.Contains(s, "buf0[0] <= n1") || !strings.Contains(s, "buf1[0] <= n0") {
		t.Errorf("target condition = %q", s)
	}
}

func TestEQZeroConstraint(t *testing.T) {
	// A load from a never-stored location expecting 0 yields EQZero.
	test := &litmus.Test{
		Name: "zeroload",
		Threads: []litmus.Thread{
			{Instrs: []litmus.Instr{litmus.Store("x", 1), litmus.Load(0, "q")}},
			{Instrs: []litmus.Instr{litmus.Load(0, "x")}},
		},
		Target: litmus.Outcome{Conds: []litmus.Cond{
			{Thread: 0, Reg: 0, Value: 0},
			{Thread: 1, Reg: 0, Value: 1},
		}},
	}
	pt, err := Convert(test)
	if err != nil {
		t.Fatal(err)
	}
	po, err := ConvertOutcome(pt, test.Target)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range po.Constraints {
		if c.Rel == EQZero {
			found = true
			if got := c.String(); got != "buf0[0] == 0" {
				t.Errorf("EQZero renders as %q", got)
			}
		}
	}
	if !found {
		t.Errorf("no EQZero constraint in %v", po)
	}
}

func TestConstraintString(t *testing.T) {
	c := Constraint{Ref: BufRef{2, 1}, Rel: RF, K: 3, A: 2, Var: 0}
	if got := c.String(); got != "buf2[1] >= 3*n0 + 2 [on seq of t0]" {
		t.Errorf("constraint string = %q", got)
	}
	c = Constraint{Ref: BufRef{0, 0}, Rel: FR, K: 1, A: 0, Var: 2}
	if got := c.String(); got != "buf0[0] <= n2 - 1" {
		t.Errorf("constraint string = %q", got)
	}
}

func TestDecodeValue(t *testing.T) {
	pt := mustConvert(t, "amd3")
	s2 := pt.StoreForValue("x", 2)
	v := s2.Value(7)
	store, iter, ok := DecodeValue(pt, "x", v)
	if !ok || iter != 7 || store.OrigValue != 2 {
		t.Errorf("DecodeValue(%d) = %+v, %d, %v", v, store, iter, ok)
	}
	if _, _, ok := DecodeValue(pt, "x", 0); ok {
		t.Error("0 must not decode")
	}
	if _, _, ok := DecodeValue(pt, "unstored", 5); ok {
		t.Error("value at unstored location must not decode")
	}
}
