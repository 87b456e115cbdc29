package litmus

import (
	"strings"
	"testing"
)

func sbTest(t *testing.T) *Test {
	t.Helper()
	test, err := SuiteTest("sb")
	if err != nil {
		t.Fatal(err)
	}
	return test
}

func TestSuiteSizeAndGroups(t *testing.T) {
	if got := len(Suite()); got != 34 {
		t.Fatalf("suite has %d tests, want 34 (Table II)", got)
	}
	if got := len(AllowedSuite()); got != 12 {
		t.Fatalf("allowed group has %d tests, want 12", got)
	}
	if got := len(ForbiddenSuite()); got != 22 {
		t.Fatalf("forbidden group has %d tests, want 22", got)
	}
}

func TestSuiteTableIISignatures(t *testing.T) {
	// [T, T_L] per test, straight from Table II of the paper.
	want := map[string][2]int{
		"amd3": {2, 2}, "iwp23b": {2, 2}, "iwp24": {2, 2},
		"n1": {3, 2}, "podwr000": {2, 2}, "podwr001": {3, 3},
		"rfi009": {2, 2}, "rfi013": {2, 2}, "rfi015": {3, 2},
		"rfi017": {2, 2}, "rwc-unfenced": {3, 2}, "sb": {2, 2},
		"amd10": {2, 2}, "amd5": {2, 2}, "amd5+staleld": {2, 2},
		"co-iriw": {4, 2}, "iriw": {4, 2}, "lb": {2, 2},
		"mp": {2, 1}, "mp+staleld": {2, 1}, "mp+fences": {2, 1},
		"n4": {2, 2}, "n5": {2, 2}, "rwc-fenced": {3, 2},
		"safe006": {2, 2}, "safe007": {3, 3}, "safe012": {3, 2},
		"safe018": {3, 2}, "safe022": {2, 1}, "safe024": {3, 2},
		"safe027": {4, 2}, "safe028": {3, 2}, "safe036": {2, 2},
		"wrc": {3, 2},
	}
	if len(want) != 34 {
		t.Fatalf("test table has %d entries, want 34", len(want))
	}
	for _, e := range Suite() {
		sig, ok := want[e.Test.Name]
		if !ok {
			t.Errorf("unexpected suite test %q", e.Test.Name)
			continue
		}
		if e.Test.T() != sig[0] || e.Test.TL() != sig[1] {
			t.Errorf("%s: [T,TL] = [%d,%d], want [%d,%d]",
				e.Test.Name, e.Test.T(), e.Test.TL(), sig[0], sig[1])
		}
		delete(want, e.Test.Name)
	}
	for name := range want {
		t.Errorf("suite is missing test %q", name)
	}
}

func TestSuiteValidates(t *testing.T) {
	for _, e := range Suite() {
		if err := e.Test.Validate(); err != nil {
			t.Errorf("%s: %v", e.Test.Name, err)
		}
	}
	for _, test := range NonConvertible() {
		if err := test.Validate(); err != nil {
			t.Errorf("%s: %v", test.Name, err)
		}
	}
}

func TestSuiteOrdering(t *testing.T) {
	entries := Suite()
	for i := 1; i < len(entries); i++ {
		a, b := entries[i-1], entries[i]
		if !a.Allowed && b.Allowed {
			t.Fatalf("allowed test %q follows forbidden test %q", b.Test.Name, a.Test.Name)
		}
		if a.Allowed == b.Allowed && a.Test.Name >= b.Test.Name {
			t.Fatalf("suite not alphabetical within group: %q >= %q", a.Test.Name, b.Test.Name)
		}
	}
}

func TestSuiteTestUnknown(t *testing.T) {
	if _, err := SuiteTest("no-such-test"); err == nil {
		t.Fatal("want error for unknown test name")
	}
}

func TestThreadCounts(t *testing.T) {
	sb := sbTest(t)
	if got := sb.Threads[0].Loads(); got != 1 {
		t.Errorf("sb thread 0 loads = %d, want 1", got)
	}
	mp, err := SuiteTest("mp")
	if err != nil {
		t.Fatal(err)
	}
	if got := mp.Threads[0].Loads(); got != 0 {
		t.Errorf("mp thread 0 loads = %d, want 0", got)
	}
	if got := mp.TL(); got != 1 {
		t.Errorf("mp TL = %d, want 1", got)
	}
	if got := mp.LoadThreads(); len(got) != 1 || got[0] != 1 {
		t.Errorf("mp LoadThreads = %v, want [1]", got)
	}
}

func TestLocsAndStoreValues(t *testing.T) {
	amd3, err := SuiteTest("amd3")
	if err != nil {
		t.Fatal(err)
	}
	locs := amd3.Locs()
	if len(locs) != 2 || locs[0] != "x" || locs[1] != "y" {
		t.Fatalf("amd3 locs = %v, want [x y]", locs)
	}
	xs := amd3.StoreValues("x")
	if len(xs) != 2 || xs[0] != 1 || xs[1] != 2 {
		t.Fatalf("amd3 x store values = %v, want [1 2] (k_x = 2)", xs)
	}
	if got := amd3.StoreValues("y"); len(got) != 1 || got[0] != 1 {
		t.Fatalf("amd3 y store values = %v, want [1]", got)
	}
	if got := amd3.StoreValues("nope"); len(got) != 0 {
		t.Fatalf("store values of unused loc = %v, want empty", got)
	}
}

func TestRegs(t *testing.T) {
	staleld, err := SuiteTest("mp+staleld")
	if err != nil {
		t.Fatal(err)
	}
	regs := staleld.Regs()
	if regs[0] != 0 || regs[1] != 3 {
		t.Fatalf("mp+staleld regs = %v, want [0 3]", regs)
	}
}

func TestAllOutcomesSB(t *testing.T) {
	sb := sbTest(t)
	outs := sb.AllOutcomes()
	if len(outs) != 4 {
		t.Fatalf("sb has %d outcomes, want 4", len(outs))
	}
	keys := map[string]bool{}
	for _, o := range outs {
		keys[o.Key()] = true
	}
	for _, want := range []Outcome{
		{Conds: []Cond{{0, 0, 0, ""}, {1, 0, 0, ""}}},
		{Conds: []Cond{{0, 0, 0, ""}, {1, 0, 1, ""}}},
		{Conds: []Cond{{0, 0, 1, ""}, {1, 0, 0, ""}}},
		{Conds: []Cond{{0, 0, 1, ""}, {1, 0, 1, ""}}},
	} {
		if !keys[want.Key()] {
			t.Errorf("missing outcome %v", want)
		}
	}
	// The target must be among the enumerated outcomes.
	found := false
	for _, o := range outs {
		if o.Equal(sb.Target) {
			found = true
		}
	}
	if !found {
		t.Error("sb target outcome not in AllOutcomes")
	}
}

func TestAllOutcomesPodwr001(t *testing.T) {
	test, err := SuiteTest("podwr001")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(test.AllOutcomes()); got != 8 {
		t.Fatalf("podwr001 has %d outcomes, want 8 (2^3)", got)
	}
}

func TestAllOutcomesContainTargets(t *testing.T) {
	for _, e := range Suite() {
		found := false
		for _, o := range e.Test.AllOutcomes() {
			if o.Equal(e.Test.Target) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: target %v not in outcome space", e.Test.Name, e.Test.Target)
		}
	}
}

func TestOutcomeHolds(t *testing.T) {
	o := Outcome{Conds: []Cond{{Thread: 0, Reg: 0, Value: 1}, {Thread: 1, Reg: 0, Value: 0}}}
	if !o.Holds([][]int64{{1}, {0}}) {
		t.Error("outcome should hold")
	}
	if o.Holds([][]int64{{1}, {1}}) {
		t.Error("outcome should not hold with wrong value")
	}
	if o.Holds([][]int64{{1}}) {
		t.Error("outcome should not hold with missing thread")
	}
	if o.Holds([][]int64{{}, {0}}) {
		t.Error("outcome should not hold with missing register")
	}
}

func TestOutcomeHoldsFullMem(t *testing.T) {
	o := Outcome{Conds: []Cond{{Loc: "x", Value: 2}}}
	if !o.HoldsFull(nil, map[Loc]int64{"x": 2}) {
		t.Error("memory outcome should hold")
	}
	if o.HoldsFull(nil, map[Loc]int64{"x": 1}) {
		t.Error("memory outcome should not hold with wrong value")
	}
	if o.Holds(nil) {
		t.Error("memory outcome must not hold without memory")
	}
	if !o.HasMemConds() {
		t.Error("HasMemConds should be true")
	}
	reg := Outcome{Conds: []Cond{{Thread: 0, Reg: 0, Value: 1}}}
	if reg.HasMemConds() {
		t.Error("register outcome has no memory conditions")
	}
}

func TestOutcomeKeyCanonical(t *testing.T) {
	a := Outcome{Conds: []Cond{{Thread: 1, Reg: 0, Value: 0}, {Thread: 0, Reg: 0, Value: 1}}}
	b := Outcome{Conds: []Cond{{Thread: 0, Reg: 0, Value: 1}, {Thread: 1, Reg: 0, Value: 0}}}
	if a.Key() != b.Key() {
		t.Errorf("keys differ: %q vs %q", a.Key(), b.Key())
	}
	if !a.Equal(b) {
		t.Error("reordered outcomes should be equal")
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		test *Test
		want string
	}{
		{
			"no name",
			&Test{Threads: threads([]Instr{Store("x", 1)})},
			"no name",
		},
		{
			"no threads",
			&Test{Name: "t"},
			"no threads",
		},
		{
			"empty thread",
			&Test{Name: "t", Threads: []Thread{{}},
				Target: outcome(rc(0, 0, 0))},
			"empty",
		},
		{
			"non-positive store",
			&Test{Name: "t", Threads: threads([]Instr{Store("x", 0)}),
				Target: outcome(rc(0, 0, 0))},
			"non-positive",
		},
		{
			"duplicate store value",
			&Test{Name: "t", Threads: threads(
				[]Instr{Store("x", 1)}, []Instr{Store("x", 1), Load(0, "x")}),
				Target: outcome(rc(1, 0, 0))},
			"duplicate store",
		},
		{
			"outcome thread out of range",
			&Test{Name: "t", Threads: threads([]Instr{Load(0, "x"), Store("y", 1)}),
				Target: outcome(rc(3, 0, 0))},
			"references thread",
		},
		{
			"outcome register out of range",
			&Test{Name: "t", Threads: threads([]Instr{Load(0, "x"), Store("y", 1)}),
				Target: outcome(rc(0, 5, 0))},
			"registers",
		},
		{
			"empty outcome",
			&Test{Name: "t", Threads: threads([]Instr{Load(0, "x"), Store("y", 1)})},
			"no conditions",
		},
		{
			"duplicate condition",
			&Test{Name: "t", Threads: threads([]Instr{Load(0, "x"), Store("y", 1)}),
				Target: outcome(rc(0, 0, 0), rc(0, 0, 1))},
			"twice",
		},
		{
			"duplicate register write",
			&Test{Name: "t", Threads: threads([]Instr{Load(0, "x"), Load(0, "y"), Store("z", 1)}),
				Target: outcome(rc(0, 0, 0))},
			"duplicate register write",
		},
		{
			"undefined outcome location",
			&Test{Name: "t", Threads: threads([]Instr{Load(0, "x"), Store("y", 1)}),
				Target: outcome(Cond{Loc: "q", Value: 1})},
			"undefined location",
		},
	}
	for _, c := range cases {
		err := c.test.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted invalid test", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestClone(t *testing.T) {
	sb := sbTest(t)
	c := sb.Clone()
	c.Threads[0].Instrs[0] = Store("q", 9)
	c.Target.Conds[0].Value = 7
	if sb.Threads[0].Instrs[0].Loc != "x" {
		t.Error("clone mutation leaked into original threads")
	}
	if sb.Target.Conds[0].Value == 7 {
		t.Error("clone mutation leaked into original target")
	}
}

func TestInstrString(t *testing.T) {
	if got := Store("x", 3).String(); got != "[x] <- 3" {
		t.Errorf("store string = %q", got)
	}
	if got := Load(1, "y").String(); got != "r1 <- [y]" {
		t.Errorf("load string = %q", got)
	}
	if got := Fence().String(); got != "mfence" {
		t.Errorf("fence string = %q", got)
	}
}
