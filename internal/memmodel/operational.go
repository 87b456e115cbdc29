package memmodel

import (
	"sort"

	"perple/internal/litmus"
)

// bufEntry is one pending store in a thread's store buffer.
type bufEntry struct {
	loc litmus.Loc
	val int64
}

// Result is one distinct final state of a test: the register file and
// the final memory some execution produces.
type Result struct {
	Regs [][]int64
	Mem  map[litmus.Loc]int64
}

// opState is a configuration of the operational machine.
type opState struct {
	pc   []int
	regs [][]int64
	bufs [][]bufEntry
	mem  []int64 // indexed by location index
}

// OperationalAllowedSet explores every interleaving of the operational
// machine for model m and returns the distinct final (register file,
// memory) results.
//
// The TSO machine is the x86-TSO abstract machine of Owens, Sarkar and
// Sewell: each thread owns a FIFO store buffer; a store enqueues; a
// nondeterministic drain step dequeues the oldest entry into shared
// memory; a load returns the newest same-location entry of its own buffer
// if any (store-to-load forwarding), else the memory value; MFENCE can
// execute only when the thread's buffer is empty. The PSO machine differs
// only in the drain step: any entry that is the oldest *for its location*
// may drain, so stores to different locations leave the buffer out of
// order. The SC machine writes memory directly and treats MFENCE as a
// no-op.
func OperationalAllowedSet(t *litmus.Test, m Model) []Result {
	locs := t.Locs()
	locIdx := make(map[litmus.Loc]int, len(locs))
	for i, l := range locs {
		locIdx[l] = i
	}

	init := opState{
		pc:   make([]int, len(t.Threads)),
		regs: make([][]int64, len(t.Threads)),
		bufs: make([][]bufEntry, len(t.Threads)),
		mem:  make([]int64, len(locs)),
	}
	for ti, n := range t.Regs() {
		init.regs[ti] = make([]int64, n)
	}
	for i, l := range locs {
		init.mem[i] = t.Init[l]
	}

	seen := map[string]bool{}
	finals := map[string]Result{}

	var visit func(s opState)
	visit = func(s opState) {
		key := encodeState(&s, locIdx)
		if seen[key] {
			return
		}
		seen[key] = true

		progressed := false
		for ti := range t.Threads {
			// Drain a store-buffer entry: under TSO only the oldest entry;
			// under PSO the oldest entry of each location.
			for _, di := range drainable(s.bufs[ti], m) {
				progressed = true
				n := cloneState(&s)
				e := n.bufs[ti][di]
				n.bufs[ti] = append(append([]bufEntry(nil), n.bufs[ti][:di]...), n.bufs[ti][di+1:]...)
				n.mem[locIdx[e.loc]] = e.val
				visit(*n)
			}
			// Execute the next instruction.
			if s.pc[ti] >= len(t.Threads[ti].Instrs) {
				continue
			}
			in := t.Threads[ti].Instrs[s.pc[ti]]
			switch in.Kind {
			case litmus.OpStore:
				progressed = true
				n := cloneState(&s)
				if m == SC {
					n.mem[locIdx[in.Loc]] = in.Value
				} else {
					n.bufs[ti] = append(append([]bufEntry(nil), n.bufs[ti]...), bufEntry{in.Loc, in.Value})
				}
				n.pc[ti]++
				visit(*n)
			case litmus.OpLoad:
				progressed = true
				n := cloneState(&s)
				v, forwarded := int64(0), false
				if m != SC {
					for i := len(n.bufs[ti]) - 1; i >= 0; i-- {
						if n.bufs[ti][i].loc == in.Loc {
							v, forwarded = n.bufs[ti][i].val, true
							break
						}
					}
				}
				if !forwarded {
					v = n.mem[locIdx[in.Loc]]
				}
				n.regs[ti][in.Reg] = v
				n.pc[ti]++
				visit(*n)
			case litmus.OpFence:
				if m == SC || len(s.bufs[ti]) == 0 {
					progressed = true
					n := cloneState(&s)
					n.pc[ti]++
					visit(*n)
				}
			}
		}

		if !progressed {
			// Terminal: all threads done and all buffers drained.
			res := Result{Regs: s.regs, Mem: map[litmus.Loc]int64{}}
			for i, l := range locs {
				res.Mem[l] = s.mem[i]
			}
			k := StateKey(t, res.Regs, res.Mem)
			if _, ok := finals[k]; !ok {
				finals[k] = res
			}
		}
	}
	visit(init)

	keys := make([]string, 0, len(finals))
	for k := range finals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Result, len(keys))
	for i, k := range keys {
		out[i] = finals[k]
	}
	return out
}

// OperationalAllowed reports whether some interleaving of the operational
// machine satisfies outcome o.
func OperationalAllowed(t *litmus.Test, o litmus.Outcome, m Model) bool {
	for _, res := range OperationalAllowedSet(t, m) {
		if o.HoldsFull(res.Regs, res.Mem) {
			return true
		}
	}
	return false
}

// drainable returns the buffer indices eligible to drain next: index 0
// under TSO's single FIFO, the first entry of every location under PSO's
// per-location queues. SC buffers are always empty.
func drainable(buf []bufEntry, m Model) []int {
	if len(buf) == 0 {
		return nil
	}
	if m != PSO {
		return []int{0}
	}
	var idxs []int
	seen := map[litmus.Loc]bool{}
	for i, e := range buf {
		if !seen[e.loc] {
			seen[e.loc] = true
			idxs = append(idxs, i)
		}
	}
	return idxs
}

func cloneState(s *opState) *opState {
	n := &opState{
		pc:   append([]int(nil), s.pc...),
		regs: make([][]int64, len(s.regs)),
		bufs: make([][]bufEntry, len(s.bufs)),
		mem:  append([]int64(nil), s.mem...),
	}
	for i, r := range s.regs {
		n.regs[i] = append([]int64(nil), r...)
	}
	for i, b := range s.bufs {
		n.bufs[i] = append([]bufEntry(nil), b...)
	}
	return n
}

func encodeState(s *opState, locIdx map[litmus.Loc]int) string {
	b := make([]byte, 0, 128)
	for _, pc := range s.pc {
		b = appendInt(b, int64(pc))
	}
	b = append(b, '/')
	for _, regs := range s.regs {
		for _, v := range regs {
			b = appendInt(b, v)
		}
		b = append(b, '|')
	}
	b = append(b, '/')
	for _, buf := range s.bufs {
		for _, e := range buf {
			b = appendInt(b, int64(locIdx[e.loc]))
			b = append(b, ':')
			b = appendInt(b, e.val)
		}
		b = append(b, '|')
	}
	b = append(b, '/')
	for _, v := range s.mem {
		b = appendInt(b, v)
	}
	return string(b)
}

// StateKey encodes a final state (register file, final memory over the
// test's locations) canonically, so checkers' state sets compare as sets
// of strings.
func StateKey(t *litmus.Test, regs [][]int64, mem map[litmus.Loc]int64) string {
	key := make([]byte, 0, 64)
	for _, tr := range regs {
		for _, v := range tr {
			key = appendInt(key, v)
		}
		key = append(key, '|')
	}
	key = append(key, '#')
	for _, loc := range t.Locs() {
		key = appendInt(key, mem[loc])
	}
	return string(key)
}

func appendInt(b []byte, v int64) []byte {
	if v < 0 {
		b = append(b, '-')
		v = -v
	}
	if v >= 10 {
		b = appendInt(b, v/10)
	}
	return append(b, byte('0'+v%10), ',')
}
