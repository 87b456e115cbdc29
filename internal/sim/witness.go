package sim

import "perple/internal/trace"

// witnessRec records rf/co witnesses for sampled iterations of a synced
// run. It lives off the hot path: the machine's load and drain hooks are
// nil-guarded single branches when recording is off, and when on, the
// recorder touches only sampled iterations' memory cells (cells are
// per-iteration, so an unsampled iteration never aliases a sampled one).
//
// Store identity is resolved by value: store values are unique per
// location (a litmus validation invariant the trace layout depends on),
// so a drained or forwarded value names its store without widening the
// machine's store-buffer entries. Loads from shared memory instead
// resolve through writers, the per-cell last-drained store, which
// distinguishes the init value from a store that happens to equal it.
//
// writers also marks the cells of unsampled iterations, so the hooks
// pay one load and one compare on them; only a sampled cell's hook
// divides to find its location and slot.
type witnessRec struct {
	layout  *trace.Layout
	set     *trace.WitnessSet
	writers []int32 // memory cell -> dense store index of last drain, -1 = init, unsampled
	cells   int     // iterations per location (the run's N)
}

// unsampled marks a writers cell whose iteration records no witness.
const unsampled int32 = -2

func newWitnessRec(layout *trace.Layout) *witnessRec {
	return &witnessRec{layout: layout, set: trace.NewWitnessSet(layout)}
}

// retarget points the recorder at another test's layout, keeping its
// backing arrays; reset sizes them for the next run.
func (w *witnessRec) retarget(layout *trace.Layout) {
	w.layout = layout
	w.set.Retarget(layout)
}

// reset prepares the recorder for an n-iteration run over memLen memory
// cells, sampling every every-th iteration. Backing arrays are reused.
func (w *witnessRec) reset(n, every, memLen int) {
	w.set.Reset(n, every)
	w.cells = n
	if cap(w.writers) < memLen {
		w.writers = make([]int32, memLen)
	}
	w.writers = w.writers[:memLen]
	for i := range w.writers {
		w.writers[i] = unsampled
	}
	// Location rows of n cells, cell = iteration: the sampled ones are
	// every set.Every-th cell of each row from its start.
	for row := 0; row < memLen; row += n {
		for i := row; i < row+n; i += w.set.Every {
			w.writers[i] = -1
		}
	}
}

// load records the rf source of dense load widx: the forwarded value's
// store when the load hit the thread's own buffer, else the cell's
// last-drained store.
func (w *witnessRec) load(widx int32, memIdx int, val int64, forwarded bool) {
	src := w.writers[memIdx]
	if src == unsampled {
		return
	}
	if forwarded {
		src = w.layout.StoreIdxFor(memIdx/w.cells, val)
	}
	w.set.SetRF(memIdx%w.cells/w.set.Every, widx, src)
}

// drain records a store reaching shared memory: the next entry of its
// iteration's global coherence order.
func (w *witnessRec) drain(memIdx int, val int64) {
	if w.writers[memIdx] == unsampled {
		return
	}
	st := w.layout.StoreIdxFor(memIdx/w.cells, val)
	w.writers[memIdx] = st
	w.set.AppendCo(memIdx%w.cells/w.set.Every, st)
}
