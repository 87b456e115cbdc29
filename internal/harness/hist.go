package harness

import "perple/internal/sim"

// outcomeHist is the hot-path outcome histogram: an open-addressing
// interner that maps each observed register file (the raw []int64 words
// of one iteration) to a dense id, with counts accumulated in a flat
// []int64. The litmus7 tally loop previously rendered every iteration's
// register file into a heap-allocated string key for a map[string]int64;
// the interner touches no strings until materialize, and caches each
// id's rendered key across count resets, so a steady-state run performs
// no histogram allocation at all. String keys (and the public
// map[string]int64 wire format) are produced only at report/Merge/JSON
// boundaries, byte-identical to the old rendering.
type outcomeHist struct {
	regCounts []int
	stride    int      // words per outcome: sum of regCounts
	words     []int64  // interned outcomes, stride words per id
	counts    []int64  // occurrence count per id
	keys      []string // lazily rendered key cache per id
	table     []int32  // open addressing: 0 = empty, else id+1
	scratch   []int64  // per-iteration gather buffer
}

func newOutcomeHist(regCounts []int) *outcomeHist {
	h := &outcomeHist{table: make([]int32, 64)}
	h.retarget(regCounts)
	return h
}

// retarget empties h for another register-file shape, dropping every
// interned outcome and cached key but keeping the backing arrays.
func (h *outcomeHist) retarget(regCounts []int) {
	h.regCounts, h.stride = regCounts, 0
	for _, rc := range regCounts {
		h.stride += rc
	}
	clear(h.keys)
	h.words, h.counts, h.keys = h.words[:0], h.counts[:0], h.keys[:0]
	clear(h.table)
	if cap(h.scratch) < h.stride {
		h.scratch = make([]int64, 0, h.stride)
	}
}

// resetCounts zeroes every count but keeps the interned outcomes, the
// probe table and the key cache, so reruns on the same runner re-use
// ids (and their cached strings) instead of reinterning.
func (h *outcomeHist) resetCounts() {
	clear(h.counts)
}

// observeBlock tallies iterations [lo, hi) of a synced run result. Rows
// are hashed and compared in place — the scratch gather is paid only on
// the first sighting of an outcome (internRegs) — and because litmus
// histograms are heavily skewed toward a few outcomes, each iteration
// is first compared against the previous iteration's outcome, skipping
// the hash walk and table probe entirely when it repeats.
//
//perple:hotpath cover=harness-litmus7-run
func (h *outcomeHist) observeBlock(res *sim.SyncedResult, lo, hi int) {
	last := -1
	for iter := lo; iter < hi; iter++ {
		if last >= 0 && h.regsEqual(last, res, iter) {
			h.counts[last]++
			continue
		}
		last = h.observe(res, iter)
	}
}

// observe tallies iteration iter and returns its outcome id (for a
// fresh outcome, the id internRegs just assigned).
//
//perple:hotpath cover=harness-litmus7-run
func (h *outcomeHist) observe(res *sim.SyncedResult, iter int) int {
	hsh := uint64(0x9E3779B97F4A7C15)
	for t, rc := range h.regCounts {
		row := res.Regs[t][iter*rc : iter*rc+rc]
		for _, v := range row {
			hsh ^= uint64(v)
			hsh *= 0xFF51AFD7ED558CCD
			hsh ^= hsh >> 33
		}
	}
	mask := len(h.table) - 1
	i := int(hsh) & mask
	for {
		slot := h.table[i]
		if slot == 0 {
			h.internRegs(res, iter)
			return len(h.counts) - 1
		}
		if id := int(slot - 1); h.regsEqual(id, res, iter) {
			h.counts[id]++
			return id
		}
		i = (i + 1) & mask
	}
}

// regsEqual compares interned outcome id against iteration iter's
// register rows without gathering them.
//
//perple:hotpath cover=harness-litmus7-run
func (h *outcomeHist) regsEqual(id int, res *sim.SyncedResult, iter int) bool {
	iw := h.words[id*h.stride : (id+1)*h.stride]
	k := 0
	for t, rc := range h.regCounts {
		row := res.Regs[t][iter*rc : iter*rc+rc]
		for _, v := range row {
			if iw[k] != v {
				return false
			}
			k++
		}
	}
	return true
}

// internRegs registers a first-seen outcome: gather the rows and take
// the interning slow path (which re-probes; the extra probe is paid
// once per distinct outcome, not per iteration).
//
//perple:hotpath cover=harness-litmus7-run
func (h *outcomeHist) internRegs(res *sim.SyncedResult, iter int) {
	w := h.scratch[:0]
	for t, rc := range h.regCounts {
		w = append(w, res.Regs[t][iter*rc:(iter+1)*rc]...)
	}
	h.scratch = w
	h.addWords(w, 1)
}

// addWords adds delta occurrences of the outcome w (stride words).
//
//perple:hotpath cover=harness-litmus7-run
func (h *outcomeHist) addWords(w []int64, delta int64) {
	mask := len(h.table) - 1
	i := int(hashWords(w)) & mask
	for {
		slot := h.table[i]
		if slot == 0 {
			id := len(h.counts)
			h.words = append(h.words, w...)
			h.counts = append(h.counts, delta)
			h.keys = append(h.keys, "")
			h.table[i] = int32(id + 1)
			if len(h.counts)*4 >= len(h.table)*3 {
				h.rehash()
			}
			return
		}
		if id := int(slot - 1); h.wordsEqual(id, w) {
			h.counts[id] += delta
			return
		}
		i = (i + 1) & mask
	}
}

//perple:hotpath cover=harness-litmus7-run
func (h *outcomeHist) wordsEqual(id int, w []int64) bool {
	iw := h.words[id*h.stride : (id+1)*h.stride]
	for i, v := range iw {
		if v != w[i] {
			return false
		}
	}
	return true
}

func (h *outcomeHist) rehash() {
	old := h.table
	h.table = make([]int32, 2*len(old))
	mask := len(h.table) - 1
	for id := range h.counts {
		i := int(hashWords(h.words[id*h.stride:(id+1)*h.stride])) & mask
		for h.table[i] != 0 {
			i = (i + 1) & mask
		}
		h.table[i] = int32(id + 1)
	}
}

// row returns interned outcome id's words.
func (h *outcomeHist) row(id int) []int64 {
	return h.words[id*h.stride : (id+1)*h.stride]
}

// key renders (and caches) id's string key, byte-identical to the
// litmus7 histogram rendering: each register as decimal digits plus a
// trailing comma, a '|' after every register-bearing thread.
func (h *outcomeHist) key(id int) string {
	if h.keys[id] == "" {
		b := make([]byte, 0, 64)
		w := h.words[id*h.stride : (id+1)*h.stride]
		off := 0
		for _, rc := range h.regCounts {
			for r := 0; r < rc; r++ {
				b = appendKeyInt(b, w[off+r])
			}
			if rc > 0 {
				b = append(b, '|')
			}
			off += rc
		}
		h.keys[id] = string(b)
	}
	return h.keys[id]
}

// materializeInto renders the interned histogram into the public
// map[string]int64 wire format, summing into m (callers clear first
// when m is reused). Zero-count ids (left over from resetCounts) are
// skipped, matching a map that never saw them.
func (h *outcomeHist) materializeInto(m map[string]int64) {
	for id, c := range h.counts {
		if c != 0 {
			m[h.key(id)] += c
		}
	}
}

// hashWords mixes the outcome words murmur-style; collisions only cost
// linear probes, never correctness.
//
//perple:hotpath cover=harness-litmus7-run
func hashWords(w []int64) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, v := range w {
		h ^= uint64(v)
		h *= 0xFF51AFD7ED558CCD
		h ^= h >> 33
	}
	return h
}
