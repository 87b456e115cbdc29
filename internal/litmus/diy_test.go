package litmus

import (
	"strings"
	"testing"
)

func TestFromCycleSB(t *testing.T) {
	test, err := FromCycle("cyc-sb", PodWR, Fre, PodWR, Fre)
	if err != nil {
		t.Fatal(err)
	}
	if test.T() != 2 || test.TL() != 2 {
		t.Fatalf("[T,TL] = [%d,%d], want [2,2]", test.T(), test.TL())
	}
	// Each thread: one store then one load, different locations.
	for ti, th := range test.Threads {
		if len(th.Instrs) != 2 || th.Instrs[0].Kind != OpStore || th.Instrs[1].Kind != OpLoad {
			t.Errorf("thread %d shape wrong: %v", ti, th.Instrs)
		}
		if th.Instrs[0].Loc == th.Instrs[1].Loc {
			t.Errorf("thread %d: store and load share a location", ti)
		}
	}
	// Both loads read 0 — the sb target.
	for _, c := range test.Target.Conds {
		if c.Value != 0 {
			t.Errorf("condition %v should expect 0", c)
		}
	}
}

func TestFromCycleMP(t *testing.T) {
	test, err := FromCycle("cyc-mp", PodWW, Rfe, PodRR, Fre)
	if err != nil {
		t.Fatal(err)
	}
	if test.T() != 2 || test.TL() != 1 {
		t.Fatalf("[T,TL] = [%d,%d], want [2,1]", test.T(), test.TL())
	}
	// The reader sees the second store but not the first: values 1 and 0.
	want := map[int64]bool{0: false, 1: false}
	for _, c := range test.Target.Conds {
		want[c.Value] = true
	}
	if !want[0] || !want[1] {
		t.Errorf("mp target should read 1 then 0: %v", test.Target)
	}
}

func TestFromCycleIRIW(t *testing.T) {
	test, err := FromCycle("cyc-iriw", Rfe, PodRR, Fre, Rfe, PodRR, Fre)
	if err != nil {
		t.Fatal(err)
	}
	if test.T() != 4 || test.TL() != 2 {
		t.Fatalf("[T,TL] = [%d,%d], want [4,2]", test.T(), test.TL())
	}
}

func TestFromCycleRotation(t *testing.T) {
	// A cycle not ending on an external edge is rotated; the result must
	// still validate and describe the same pattern (sb here).
	test, err := FromCycle("rot", Fre, PodWR, Fre, PodWR)
	if err != nil {
		t.Fatal(err)
	}
	if test.T() != 2 || test.TL() != 2 {
		t.Fatalf("[T,TL] = [%d,%d], want [2,2]", test.T(), test.TL())
	}
}

func TestFromCycleFenced(t *testing.T) {
	test, err := FromCycle("cyc-sb-fenced", FencedWR, Fre, FencedWR, Fre)
	if err != nil {
		t.Fatal(err)
	}
	fences := 0
	for _, th := range test.Threads {
		for _, in := range th.Instrs {
			if in.Kind == OpFence {
				fences++
			}
		}
	}
	if fences != 2 {
		t.Errorf("fenced sb should have 2 fences, got %d", fences)
	}
}

func TestFromCycleErrors(t *testing.T) {
	cases := []struct {
		name  string
		edges []EdgeSpec
		want  string
	}{
		{"too short", []EdgeSpec{Fre}, "at least 2 edges"},
		{"single thread", []EdgeSpec{PodWR, PodRW}, "external"},
		{"kind mismatch", []EdgeSpec{PodWR, Rfe, PodWR, Fre}, "source"},
		{"incoherent", []EdgeSpec{Rfe, Fre}, "incoherent"},
	}
	for _, c := range cases {
		_, err := FromCycle(c.name, c.edges...)
		if err == nil {
			t.Errorf("%s: cycle accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestParseCycle(t *testing.T) {
	edges, err := ParseCycle("podwr fre PODWR Fre")
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 4 || edges[0] != PodWR || edges[1] != Fre {
		t.Errorf("parsed %v", edges)
	}
	if _, err := ParseCycle("bogus"); err == nil {
		t.Error("bogus edge accepted")
	}
	if _, err := ParseCycle("  "); err == nil {
		t.Error("empty cycle accepted")
	}
}

func TestEdgeSpecStrings(t *testing.T) {
	for e := Rfe; e <= FencedWW; e++ {
		s := e.String()
		if strings.HasPrefix(s, "EdgeSpec(") {
			t.Errorf("edge %d has no name", int(e))
		}
		back, err := ParseEdge(s)
		if err != nil || back != e {
			t.Errorf("round trip failed for %s", s)
		}
	}
}

// enumerateCycles yields every valid cycle of the given length over a
// small edge alphabet (validity checked by FromCycle itself).
func enumerateCycles(t *testing.T, length int, alphabet []EdgeSpec, visit func([]EdgeSpec, *Test)) {
	t.Helper()
	idx := make([]int, length)
	for {
		edges := make([]EdgeSpec, length)
		for i, j := range idx {
			edges[i] = alphabet[j]
		}
		if test, err := FromCycle("enum", edges...); err == nil {
			visit(edges, test)
		}
		i := length - 1
		for i >= 0 {
			idx[i]++
			if idx[i] < len(alphabet) {
				break
			}
			idx[i] = 0
			i--
		}
		if i < 0 {
			return
		}
	}
}

// TestEnumeratedCyclesValidate: every accepted cycle produces a valid
// test with one condition per load.
func TestEnumeratedCyclesValidate(t *testing.T) {
	alphabet := []EdgeSpec{Rfe, Fre, Wse, PodWR, PodRR, PodRW, PodWW, FencedWR}
	count := 0
	enumerateCycles(t, 4, alphabet, func(edges []EdgeSpec, test *Test) {
		count++
		if err := test.Validate(); err != nil {
			t.Errorf("cycle %v: %v", edges, err)
		}
		loads := 0
		for _, th := range test.Threads {
			loads += th.Loads()
		}
		regConds, memConds := 0, 0
		for _, c := range test.Target.Conds {
			if c.IsMem() {
				memConds++
			} else {
				regConds++
			}
		}
		if regConds != loads {
			t.Errorf("cycle %v: %d register conditions for %d loads", edges, regConds, loads)
		}
		// Multi-store locations must be ws-pinned by a final-state
		// condition.
		for _, loc := range test.Locs() {
			if len(test.StoreValues(loc)) > 1 && memConds == 0 {
				t.Errorf("cycle %v: multi-store location %s without a final-state pin", edges, loc)
			}
		}
	})
	if count < 10 {
		t.Errorf("only %d valid 4-edge cycles; enumeration looks broken", count)
	}
}
