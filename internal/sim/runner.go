package sim

import (
	"context"
	"fmt"
	"math"

	"perple/internal/core"
	"perple/internal/memmodel"
)

// Runner executes synced-mode runs of one compiled test on a reusable
// machine: the memory array, register files, store-buffer rings and RNG
// are allocated once and recycled, so the steady-state iteration loop of
// repeated runs performs no heap allocation. A Runner is not safe for
// concurrent use; concurrent executors each hold their own Runner over
// the shared CompiledTest.
//
// The returned SyncedResult aliases the Runner's backing arrays and is
// valid only until the next Run call; a caller that keeps results
// across runs uses a fresh Runner per run. Retarget points the runner
// at another test without giving those arrays up.
type Runner struct {
	ct      *CompiledTest
	m       machine
	threads []simThread
	res     SyncedResult
	wit     *witnessRec // lazily built on first witness-recording run
}

// NewRunner builds a reusable synced-mode runner for a compiled test.
func NewRunner(ct *CompiledTest) *Runner {
	r := &Runner{}
	r.Retarget(ct)
	return r
}

// Retarget points the runner at another compiled test, keeping its
// backing arrays — memory cells, register files, store-buffer rings,
// RNG and witness recorder — so a test switch allocates only where the
// new test needs more than the old one held. Runs after Retarget are
// identical to a fresh NewRunner(ct)'s.
func (r *Runner) Retarget(ct *CompiledTest) {
	r.ct = ct
	r.m.locs = ct.locs
	r.threads = r.m.bindThreads(r.threads, ct.progs)
	r.res.Regs = resizeKeep(r.res.Regs, len(ct.progs))
	r.res.RegCounts = ct.regCounts
	r.res.Locs = ct.locs
	if r.wit != nil {
		r.wit.retarget(ct.layout)
	}
}

// bindThreads sizes threads to one simThread per program and points the
// machine at them. Threads past the old length keep their store-buffer
// rings from earlier tests; run setup resets every other field.
func (m *machine) bindThreads(threads []simThread, progs []bytecodeProg) []simThread {
	threads = resizeKeep(threads, len(progs))
	m.threads = resizeKeep(m.threads, len(progs))
	for i := range threads {
		threads[i].id, threads[i].prog = i, progs[i]
		m.threads[i] = &threads[i]
	}
	return threads
}

// RunSynced executes n iterations of the test under the given
// synchronization mode. Iterations use disjoint memory cells, as
// litmus7 does, so each iteration's outcome is well-defined even
// without synchronization; in ModeNone only temporally overlapping
// same-index iterations interact.
func (r *Runner) RunSynced(n int, mode Mode, cfg Config) (*SyncedResult, error) {
	return r.RunSyncedCtx(context.Background(), n, mode, cfg)
}

// RunSyncedCtx is RunSynced under a context: the event loop polls for
// cancellation (every iteration in barriered modes, every ~1k events in
// ModeNone) and aborts with the context's error instead of running the
// remaining iterations to completion. Equal (n, mode, cfg) arguments
// give runs identical to a fresh machine's: reset restores every piece
// of machine state the RNG-driven event loops observe.
func (r *Runner) RunSyncedCtx(ctx context.Context, n int, mode Mode, cfg Config) (*SyncedResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("sim: negative iteration count %d", n)
	}
	if n > 0 && len(r.ct.locs) > math.MaxInt32/n {
		// Store buffers hold memory-cell indices as int32.
		return nil, fmt.Errorf("sim: %d iterations over %d locations exceed %d memory cells", n, len(r.ct.locs), math.MaxInt32)
	}
	m := &r.m
	m.cfg = cfg
	m.pso = cfg.Relaxation == memmodel.PSO
	m.initSpans()
	m.reseed(cfg.Seed)
	m.trace = newTrace(cfg.TraceSize)
	m.cells = n
	m.done = ctx.Done()
	m.steps = 0
	m.nextDrainAt = drainNever
	m.mem = resizeZeroed(m.mem, len(r.ct.locs)*n)
	for ti := range r.threads {
		th := &r.threads[ti]
		th.time, th.speed, th.pc, th.iter = 0, 100, 0, 0
		th.buf.reset(m.pso, len(r.ct.locs))
		r.res.Regs[ti] = resizeZeroed(r.res.Regs[ti], r.ct.regCounts[ti]*n)
	}
	res := &r.res
	res.Mem = m.mem
	res.N = n
	res.Ticks = 0
	res.Trace = m.trace
	m.wit, res.Witnesses = nil, nil
	if cfg.WitnessEvery > 0 {
		if r.wit == nil {
			r.wit = newWitnessRec(r.ct.layout)
		}
		r.wit.reset(n, cfg.WitnessEvery, len(m.mem))
		m.wit = r.wit
		res.Witnesses = r.wit.set
	}
	if n == 0 {
		return res, nil
	}
	for li, loc := range r.ct.locs {
		if v := r.ct.test.Init[loc]; v != 0 {
			row := m.mem[li*n : (li+1)*n]
			for i := range row {
				row[i] = v
			}
		}
	}
	p := mode.params()
	if mode == ModeNone {
		m.runFree(n, p, res)
	} else {
		m.runBarriered(n, p, res)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sim: synced run aborted: %w", err)
	}
	m.settle()
	res.Ticks = m.maxTime()
	return res, nil
}

// PerpetualRunner executes perpetual runs of one compiled perpetual test
// on a reusable machine. Like Runner, it recycles machine state across
// runs and is not safe for concurrent use. The buf arrays are recycled
// too: the returned PerpetualResult and its BufSet alias the runner and
// are valid only until the next Run call, so a caller that keeps buffers
// across runs (counters and skew analysis read them after the run) uses
// a fresh runner per run.
type PerpetualRunner struct {
	cp      *CompiledPerpetual
	m       machine
	threads []simThread
	bufs    core.BufSet
	res     PerpetualResult
}

// NewPerpetualRunner builds a reusable perpetual runner.
func NewPerpetualRunner(cp *CompiledPerpetual) *PerpetualRunner {
	r := &PerpetualRunner{}
	r.m.cells = 1
	r.Retarget(cp)
	return r
}

// Retarget points the runner at another compiled perpetual test,
// keeping its machine state, store-buffer rings and buf arrays like
// Runner.Retarget. Runs after Retarget are identical to a fresh
// NewPerpetualRunner(cp)'s.
func (r *PerpetualRunner) Retarget(cp *CompiledPerpetual) {
	r.cp = cp
	r.m.locs = cp.locs
	r.threads = r.m.bindThreads(r.threads, cp.progs)
}

// Run executes n synchronization-free iterations of the perpetual test:
// threads are released once within LaunchSpread ticks and then run
// independently, storing arithmetic-sequence values to shared cells and
// recording every load into the buf arrays.
func (r *PerpetualRunner) Run(n int, cfg Config) (*PerpetualResult, error) {
	return r.RunCtx(context.Background(), n, cfg)
}

// RunCtx is Run under a context: the event loop polls for cancellation
// every ~1k machine events and aborts with the context's error instead
// of running the remaining iterations to completion.
func (r *PerpetualRunner) RunCtx(ctx context.Context, n int, cfg Config) (*PerpetualResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.WitnessEvery > 0 {
		return nil, fmt.Errorf("sim: witness recording (WitnessEvery=%d) is synced-mode only", cfg.WitnessEvery)
	}
	if n < 0 {
		return nil, fmt.Errorf("sim: negative iteration count %d", n)
	}
	m := &r.m
	m.cfg = cfg
	m.pso = cfg.Relaxation == memmodel.PSO
	m.initSpans()
	m.reseed(cfg.Seed)
	m.trace = newTrace(cfg.TraceSize)
	m.done = ctx.Done()
	m.steps = 0
	m.nextDrainAt = drainNever
	m.mem = resizeZeroed(m.mem, len(r.cp.locs))
	bufs := &r.bufs
	bufs.Reset(r.cp.pt, n)
	for ti := range r.threads {
		th := &r.threads[ti]
		th.speed, th.pc, th.iter = 100, 0, 0
		th.buf.reset(m.pso, len(r.cp.locs))
		th.time = m.draw(&m.launchSpan)
		m.newIteration(th, cfg.PerpIterOverhead)
	}
	if n > 0 {
		if err := m.runPerpetual(ctx, n, bufs, r.cp.pt.Reads); err != nil {
			return nil, err
		}
	}
	m.settle()
	r.res = PerpetualResult{Bufs: bufs, Ticks: m.maxTime(), Trace: m.trace}
	return &r.res, nil
}

// reseed resets the machine's RNG to the state of a freshly seeded
// rand.NewSource(seed) (see lfSource), allocating only on first use, so
// reused machines replay the same streams as fresh ones.
func (m *machine) reseed(seed int64) {
	m.rng.seed(seed)
}

// resizeKeep returns s resized to n elements, keeping every element its
// backing array held, including those past len(s).
func resizeKeep[T any](s []T, n int) []T {
	s = s[:cap(s)]
	if n > len(s) {
		s = append(s, make([]T, n-len(s))...)
	}
	return s[:n]
}

// resizeZeroed returns s resized to n zeroed elements, reusing the
// backing array when it is large enough.
func resizeZeroed(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	clear(s)
	return s
}
