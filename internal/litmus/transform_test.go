package litmus

import "testing"

func TestWithFencesPackageLocal(t *testing.T) {
	lb, err := SuiteTest("lb")
	if err != nil {
		t.Fatal(err)
	}
	fenced := WithFences(lb)
	// lb: load;store per thread → load;fence;store.
	for ti, th := range fenced.Threads {
		if len(th.Instrs) != 3 || th.Instrs[1].Kind != OpFence {
			t.Errorf("thread %d: %v", ti, th.Instrs)
		}
	}
	if err := fenced.Validate(); err != nil {
		t.Error(err)
	}
	if fenced.Doc == lb.Doc {
		t.Error("doc should note the fencing")
	}
}

func TestRelabelLocationsPackageLocal(t *testing.T) {
	mp, err := SuiteTest("mp")
	if err != nil {
		t.Fatal(err)
	}
	out, err := RelabelLocations(mp, map[Loc]Loc{"x": "data", "y": "flag"})
	if err != nil {
		t.Fatal(err)
	}
	if out.Threads[0].Instrs[0].Loc != "data" || out.Threads[0].Instrs[1].Loc != "flag" {
		t.Errorf("relabel wrong: %v", out.Threads[0].Instrs)
	}
	// Memory conditions are relabeled too.
	nc := NonConvertible()[0] // 2+2w with [x]/[y] conditions
	out2, err := RelabelLocations(nc, map[Loc]Loc{"x": "p"})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range out2.Target.Conds {
		if c.IsMem() && c.Loc == "p" {
			found = true
		}
	}
	if !found {
		t.Errorf("memory condition not relabeled: %v", out2.Target)
	}
	// Init values follow the location.
	withInit := mp.Clone()
	withInit.Init = map[Loc]int64{"x": 0}
	out3, err := RelabelLocations(withInit, map[Loc]Loc{"x": "q"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := out3.Init["q"]; !ok {
		t.Error("init not relabeled")
	}
}

func TestStringers(t *testing.T) {
	if OpStore.String() != "store" || OpLoad.String() != "load" || OpFence.String() != "fence" {
		t.Error("OpKind strings wrong")
	}
	if OpKind(42).String() == "" {
		t.Error("unknown OpKind should still render")
	}
	c := Cond{Loc: "x", Value: 3}
	if c.String() != "[x]=3" {
		t.Errorf("mem cond string = %q", c.String())
	}
	o := Outcome{Conds: []Cond{{Thread: 0, Reg: 1, Value: 2}, {Loc: "y", Value: 0}}}
	if got := o.String(); got != "0:r1=2 && [y]=0" {
		t.Errorf("outcome string = %q", got)
	}
	ref := InstrRef{Thread: 2, Index: 1}
	if ref.String() != "i21" {
		t.Errorf("instr ref string = %q", ref.String())
	}
}

func TestRegNameOverflow(t *testing.T) {
	if regName(0) != "EAX" {
		t.Errorf("reg 0 = %q", regName(0))
	}
	if got := regName(99); got != "REG99" {
		t.Errorf("reg 99 = %q", got)
	}
}
