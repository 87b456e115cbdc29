package sim

import (
	"perple/internal/core"
	"perple/internal/litmus"
	"perple/internal/trace"
)

// CompiledTest is a litmus test lowered for the synced-mode machine:
// locations resolved to dense indices, per-thread instruction programs
// pre-built, register counts extracted. Compilation hoists the per-run
// map builds of the original RunSynced out of the hot path; a compiled
// test is immutable and may be shared by any number of Runners (and
// goroutines) concurrently.
type CompiledTest struct {
	test      *litmus.Test
	locs      []litmus.Loc
	locIdx    map[litmus.Loc]int
	progs     []bytecodeProg
	regCounts []int
	layout    *trace.Layout
}

// Compile validates and lowers a litmus test to bytecode for the
// synced-mode machine (see bytecode.go for the instruction format).
func Compile(t *litmus.Test) (*CompiledTest, error) {
	// The witness layout validates the test and fixes the dense load
	// numbering the compiled programs share (loads in (thread,
	// instruction) order), so witness recording needs no per-run setup.
	layout, err := trace.NewLayout(t)
	if err != nil {
		return nil, err
	}
	locs := t.Locs()
	ct := &CompiledTest{
		test:      t,
		locs:      locs,
		locIdx:    make(map[litmus.Loc]int, len(locs)),
		progs:     make([]bytecodeProg, len(t.Threads)),
		regCounts: t.Regs(),
		layout:    layout,
	}
	for i, l := range locs {
		ct.locIdx[l] = i
	}
	nextLoad := int32(0)
	for ti := range t.Threads {
		instrs := t.Threads[ti].Instrs
		prog := bytecodeProg{
			code: make([]uint64, 0, len(instrs)),
			v1:   make([]int64, 0, len(instrs)),
		}
		for _, in := range instrs {
			locIdx, reg, widx := 0, 0, int32(-1)
			if in.Kind != litmus.OpFence {
				locIdx = ct.locIdx[in.Loc]
			}
			if in.Kind == litmus.OpLoad {
				reg = in.Reg
				widx = nextLoad
				nextLoad++
			}
			w, err := packInstr(in.Kind, locIdx, reg, widx)
			if err != nil {
				return nil, err
			}
			prog.code = append(prog.code, w)
			prog.v1 = append(prog.v1, in.Value)
		}
		ct.progs[ti] = prog
	}
	return ct, nil
}

// Test returns the source litmus test.
func (ct *CompiledTest) Test() *litmus.Test { return ct.test }

// LocIdx resolves a location to its dense index.
func (ct *CompiledTest) LocIdx(l litmus.Loc) (int, bool) {
	i, ok := ct.locIdx[l]
	return i, ok
}

// RegCounts returns the per-thread register counts. Callers must not
// modify the returned slice.
func (ct *CompiledTest) RegCounts() []int { return ct.regCounts }

// WitnessLayout returns the compiled witness layout (shared, immutable);
// witnesses on a SyncedResult are expressed against it.
func (ct *CompiledTest) WitnessLayout() *trace.Layout { return ct.layout }

// CompiledPerpetual is a perpetual test lowered for the machine: store
// instructions resolved to their arithmetic sequences, loads to their
// buf slots. Immutable and shareable like CompiledTest.
type CompiledPerpetual struct {
	pt    *core.PerpetualTest
	locs  []litmus.Loc
	progs []bytecodeProg
}

// CompilePerpetual lowers a perpetual test to bytecode for the machine:
// store sequences become (k, a) operand pairs, loads carry their buf
// slot in the register field.
func CompilePerpetual(pt *core.PerpetualTest) (*CompiledPerpetual, error) {
	t := pt.Orig
	locs := t.Locs()
	locIdx := make(map[litmus.Loc]int, len(locs))
	for i, l := range locs {
		locIdx[l] = i
	}
	cp := &CompiledPerpetual{pt: pt, locs: locs, progs: make([]bytecodeProg, len(t.Threads))}
	for ti := range t.Threads {
		instrs := t.Threads[ti].Instrs
		prog := bytecodeProg{
			code: make([]uint64, 0, len(instrs)),
			v1:   make([]int64, 0, len(instrs)),
			v2:   make([]int64, 0, len(instrs)),
		}
		slot := 0
		for _, in := range instrs {
			locI, regOrSlot := 0, 0
			var k, a int64
			switch in.Kind {
			case litmus.OpStore:
				s := pt.StoreForValue(in.Loc, in.Value)
				locI = locIdx[in.Loc]
				k, a = s.K, s.A
			case litmus.OpLoad:
				locI = locIdx[in.Loc]
				regOrSlot = slot
				slot++
			}
			w, err := packInstr(in.Kind, locI, regOrSlot, -1)
			if err != nil {
				return nil, err
			}
			prog.code = append(prog.code, w)
			prog.v1 = append(prog.v1, k)
			prog.v2 = append(prog.v2, a)
		}
		cp.progs[ti] = prog
	}
	return cp, nil
}

// Test returns the source perpetual test.
func (cp *CompiledPerpetual) Test() *core.PerpetualTest { return cp.pt }
