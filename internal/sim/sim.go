// Package sim is a discrete-event simulated x86-TSO multicore: the
// substrate that stands in for the paper's Xeon cluster (see DESIGN.md,
// substitution table). Each core executes a litmus-test thread with
// per-instruction timing jitter, a FIFO store buffer whose entries drain
// to shared memory after a random latency, store-to-load forwarding,
// MFENCE, occasional OS-preemption stalls, and tick-accounted
// synchronization barriers in the five litmus7 modes. The machine is
// deterministic given a seed.
//
// Two run shapes are provided, each on a reusable runner over a
// compiled test: Runner.RunSynced executes N per-iteration-synchronized
// (or free-running, for ModeNone) iterations over per-iteration memory
// cells, litmus7-style; PerpetualRunner.Run executes N
// synchronization-free iterations of a converted perpetual test over
// shared cells, recording loads into buf arrays, PerpLE-style.
package sim

import (
	"fmt"
	"math/rand"

	"perple/internal/core"
	"perple/internal/litmus"
	"perple/internal/memmodel"
	"perple/internal/trace"
)

// Mode is a litmus7 thread-synchronization mode (Section VI-A of the
// paper) or the PerpLE launch-only synchronization.
type Mode int

const (
	// ModeUser is litmus7's default polling (spin) barrier.
	ModeUser Mode = iota
	// ModeUserFence is the polling barrier with write-propagation fences.
	ModeUserFence
	// ModePthread is a pthread barrier: expensive kernel sleep/wake with
	// staggered wakeups.
	ModePthread
	// ModeTimebase synchronizes on the architecture's timebase counter:
	// expensive to arm but releasing threads nearly simultaneously.
	ModeTimebase
	// ModeNone runs iterations back-to-back with no synchronization;
	// iteration n of one thread is only compared with iteration n of the
	// others.
	ModeNone
)

// Modes lists every litmus7 synchronization mode in presentation order.
var Modes = []Mode{ModeUser, ModeUserFence, ModePthread, ModeTimebase, ModeNone}

func (m Mode) String() string {
	switch m {
	case ModeUser:
		return "user"
	case ModeUserFence:
		return "userfence"
	case ModePthread:
		return "pthread"
	case ModeTimebase:
		return "timebase"
	case ModeNone:
		return "none"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode resolves a mode name.
func ParseMode(s string) (Mode, error) {
	for _, m := range Modes {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("sim: unknown synchronization mode %q", s)
}

// modeParams models each barrier's cost structure and release alignment.
type modeParams struct {
	// barrierTicks is the mean cost charged between the last arrival and
	// the release (±10% jitter).
	barrierTicks int64
	// releaseSpread is the maximum extra delay of each thread's release
	// relative to the barrier (uniform); tighter spread means more
	// same-iteration interaction.
	releaseSpread int64
	// stagger, when positive, delays thread k's release by ~k·stagger
	// ticks, modelling one-by-one kernel wakeups (pthread).
	stagger int64
	// iterOverhead is the per-iteration harness bookkeeping cost charged
	// even without a barrier.
	iterOverhead int64
	// flush forces each thread's store buffer to drain at the barrier
	// (userfence).
	flush bool
}

func (m Mode) params() modeParams {
	switch m {
	// Calibration note: on real hardware the release skew of a polling
	// barrier (~100s of ns of cache-line arbitration) is an order of
	// magnitude larger than store-buffer drain latency (~10ns), which is
	// why litmus7's aligned modes still miss most weak outcomes; the
	// timebase barrier releases nearly simultaneously and finds the most.
	// The spreads below preserve those ratios against DefaultConfig's
	// drain window, and barrierTicks+releaseSpread/2 preserves the paper's
	// relative mode runtimes (Figure 10).
	case ModeUser:
		return modeParams{barrierTicks: 22, releaseSpread: 160, iterOverhead: 6}
	case ModeUserFence:
		return modeParams{barrierTicks: 22, releaseSpread: 150, iterOverhead: 6, flush: true}
	case ModePthread:
		return modeParams{barrierTicks: 1500, releaseSpread: 60, stagger: 130, iterOverhead: 6}
	case ModeTimebase:
		return modeParams{barrierTicks: 185, releaseSpread: 4, iterOverhead: 6}
	case ModeNone:
		return modeParams{iterOverhead: 18}
	default:
		panic("sim: invalid mode")
	}
}

// Config holds the machine's timing model. All durations are in abstract
// ticks; only ratios matter. The zero value is unusable — start from
// DefaultConfig.
type Config struct {
	// Seed drives every random choice; equal seeds give equal runs.
	Seed int64

	// Relaxation selects the machine's memory system: memmodel.TSO (the
	// default, a single FIFO store buffer per core) or memmodel.PSO
	// (per-location buffers whose drains may reorder across locations).
	// The PSO machine is the fault-injection target: hardware that claims
	// TSO but reorders its stores. memmodel.SC is rejected — an SC
	// machine has no buffers to simulate.
	Relaxation memmodel.Model

	// InstrCostMin/Max bound the per-instruction execution cost.
	InstrCostMin, InstrCostMax int64

	// DrainMin/Max bound the residency of a store-buffer entry before it
	// reaches shared memory. Larger values widen the window in which
	// store-buffering outcomes are observable.
	DrainMin, DrainMax int64

	// FenceCost is charged by MFENCE on top of waiting for the buffer to
	// empty.
	FenceCost int64

	// PerpIterOverhead is the perpetual loop's per-iteration bookkeeping
	// (index increment, buf spill).
	PerpIterOverhead int64

	// PreemptProb is the per-iteration probability that a thread suffers
	// an OS preemption stall of PreemptMin..PreemptMax ticks. Preemption
	// is the main source of large thread skew (Figure 12).
	PreemptProb float64
	PreemptMin  int64
	PreemptMax  int64

	// SpeedJitterPct adds ±pct% per-iteration speed variation per thread,
	// making relative thread progress a random walk that recrosses zero.
	SpeedJitterPct int64

	// LaunchSpread is the maximum difference between thread start times
	// after the one-time launch synchronization.
	LaunchSpread int64

	// ExhFrameTick / HeurFrameTick are the modelled per-frame costs of
	// the outcome counters, used by the harness's runtime accounting.
	ExhFrameTick, HeurFrameTick float64

	// TraceSize, when positive, records the last TraceSize machine events
	// (stores, drains, loads, fences, preemptions) on the run result for
	// debugging. Zero disables tracing at no cost.
	TraceSize int

	// WitnessEvery, when positive, records an rf/co witness for every
	// WitnessEvery-th iteration of a synced run (1 = every iteration)
	// into SyncedResult.Witnesses. Zero disables recording at no cost
	// beyond a nil check per load and drain. Synced modes only;
	// perpetual runs reject it.
	WitnessEvery int
}

// DefaultConfig returns the calibrated timing model used throughout the
// evaluation. See DESIGN.md for the calibration rationale.
func DefaultConfig() Config {
	return Config{
		Seed:             1,
		Relaxation:       memmodel.TSO,
		InstrCostMin:     1,
		InstrCostMax:     3,
		DrainMin:         2,
		DrainMax:         12,
		FenceCost:        4,
		PerpIterOverhead: 3,
		PreemptProb:      0.0005,
		PreemptMin:       100,
		PreemptMax:       1_200,
		SpeedJitterPct:   25,
		LaunchSpread:     30,
		ExhFrameTick:     1.2,
		HeurFrameTick:    1.0,
	}
}

// WithSeed returns a copy of the config with a different seed.
func (c Config) WithSeed(seed int64) Config {
	c.Seed = seed
	return c
}

func (c Config) validate() error {
	switch {
	case c.Relaxation != memmodel.TSO && c.Relaxation != memmodel.PSO:
		return fmt.Errorf("sim: unsupported relaxation %v (want TSO or PSO)", c.Relaxation)
	case c.InstrCostMin <= 0 || c.InstrCostMax < c.InstrCostMin:
		return fmt.Errorf("sim: invalid instruction cost range [%d,%d]", c.InstrCostMin, c.InstrCostMax)
	case c.DrainMin < 0 || c.DrainMax < c.DrainMin:
		return fmt.Errorf("sim: invalid drain range [%d,%d]", c.DrainMin, c.DrainMax)
	case c.PreemptProb < 0 || c.PreemptProb > 1:
		return fmt.Errorf("sim: invalid preemption probability %g", c.PreemptProb)
	case c.PreemptProb > 0 && c.PreemptMax < c.PreemptMin:
		return fmt.Errorf("sim: invalid preemption range [%d,%d]", c.PreemptMin, c.PreemptMax)
	case c.WitnessEvery < 0:
		return fmt.Errorf("sim: negative witness sampling stride %d", c.WitnessEvery)
	}
	return nil
}

// uniform draws from [lo, hi] inclusive.
func uniform(rng *rand.Rand, lo, hi int64) int64 {
	if hi <= lo {
		return lo
	}
	return lo + rng.Int63n(hi-lo+1)
}

// SyncedResult is the outcome of a litmus7-style run.
type SyncedResult struct {
	// Regs[t][n*r+i] is register i of thread t at the end of iteration n,
	// where r is the thread's register count.
	Regs [][]int64
	// RegCounts[t] is the register count r of thread t.
	RegCounts []int
	// Mem[li*N+n] is the final value of location li's iteration-n cell
	// (locations indexed per Locs).
	Mem []int64
	// Locs fixes the location indexing of Mem.
	Locs []litmus.Loc
	// N is the iteration count.
	N int
	// Ticks is the simulated wall time of the run (max core finish time).
	Ticks int64
	// Trace holds the recorded machine events when Config.TraceSize > 0.
	Trace *Trace
	// Witnesses holds the recorded rf/co witnesses when
	// Config.WitnessEvery > 0 (nil otherwise). Like Regs and Mem it
	// aliases the Runner's reusable buffers and is valid only until the
	// next run.
	Witnesses *trace.WitnessSet
}

// RegisterFile returns the register file view of iteration n.
func (r *SyncedResult) RegisterFile(n int, scratch [][]int64) [][]int64 {
	if scratch == nil {
		scratch = make([][]int64, len(r.Regs))
		for t, rc := range r.RegCounts {
			scratch[t] = make([]int64, rc)
		}
	}
	for t, rc := range r.RegCounts {
		copy(scratch[t], r.Regs[t][n*rc:(n+1)*rc])
	}
	return scratch
}

// MemAt returns iteration n's final memory as a map (allocates; used only
// for tests with final-memory conditions).
func (r *SyncedResult) MemAt(n int) map[litmus.Loc]int64 {
	mem := make(map[litmus.Loc]int64, len(r.Locs))
	for li, loc := range r.Locs {
		mem[loc] = r.Mem[li*r.N+n]
	}
	return mem
}

// PerpetualResult is the outcome of a PerpLE-style run.
type PerpetualResult struct {
	Bufs *core.BufSet
	// Ticks is the simulated wall time of test execution (excluding
	// outcome counting, which the harness accounts separately).
	Ticks int64
	// Trace holds the recorded machine events when Config.TraceSize > 0.
	Trace *Trace
}
