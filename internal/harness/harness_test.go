package harness

import (
	"context"
	"testing"

	"perple/internal/core"
	"perple/internal/litmus"
	"perple/internal/sim"
)

func mustPerp(t *testing.T, name string) *core.PerpetualTest {
	t.Helper()
	test, err := litmus.SuiteTest(name)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := core.Convert(test)
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

func targetCounter(t *testing.T, pt *core.PerpetualTest) *core.Counter {
	t.Helper()
	c, err := core.NewTargetCounter(pt)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestLitmus7HistogramTotals(t *testing.T) {
	test, err := litmus.SuiteTest("sb")
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	res, err := RunLitmus7(context.Background(), test, n, sim.ModeUser, test.AllOutcomes(), sim.DefaultConfig(), Litmus7Options{})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range res.Histogram {
		total += c
	}
	if total != n {
		t.Errorf("histogram total = %d, want %d", total, n)
	}
	// The outcome space partitions iterations, so the outcome counts also
	// sum to N.
	var ocTotal int64
	for _, c := range res.OutcomeCounts {
		ocTotal += c
	}
	if ocTotal != n {
		t.Errorf("outcomes-of-interest total = %d, want %d", ocTotal, n)
	}
	if res.Ticks <= 0 {
		t.Error("no simulated time accounted")
	}
}

func TestLitmus7MemConditions(t *testing.T) {
	// coww's target (final x=1 after storing 1 then 2) must never occur;
	// its complement (final x=2 with the read seeing 2) must occur.
	var coww *litmus.Test
	for _, nc := range litmus.NonConvertible() {
		if nc.Name == "coww" {
			coww = nc
		}
	}
	if coww == nil {
		t.Fatal("coww not found")
	}
	possible := litmus.Outcome{Conds: []litmus.Cond{{Loc: "x", Value: 2}}}
	res, err := RunLitmus7(context.Background(), coww, 500, sim.ModeUser, []litmus.Outcome{possible}, sim.DefaultConfig(), Litmus7Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TargetCount != 0 {
		t.Errorf("coww forbidden final state observed %d times", res.TargetCount)
	}
	if res.OutcomeCounts[0] == 0 {
		t.Error("final x=2 never observed in 500 iterations")
	}
}

func TestLitmus7RejectsBadOutcome(t *testing.T) {
	test, err := litmus.SuiteTest("sb")
	if err != nil {
		t.Fatal(err)
	}
	bad := litmus.Outcome{Conds: []litmus.Cond{{Thread: 7, Reg: 0, Value: 0}}}
	if _, err := RunLitmus7(context.Background(), test, 10, sim.ModeUser, []litmus.Outcome{bad}, sim.DefaultConfig(), Litmus7Options{}); err == nil {
		t.Error("out-of-range outcome accepted")
	}
	badLoc := litmus.Outcome{Conds: []litmus.Cond{{Loc: "zz", Value: 0}}}
	if _, err := RunLitmus7(context.Background(), test, 10, sim.ModeUser, []litmus.Outcome{badLoc}, sim.DefaultConfig(), Litmus7Options{}); err == nil {
		t.Error("unknown-location outcome accepted")
	}
}

// TestNoFalsePositives is the paper's central soundness claim (Figure 9,
// red X tests): for every Table II test whose target x86-TSO forbids,
// neither litmus7 in any mode nor PerpLE with either counter may ever
// report the target.
func TestNoFalsePositives(t *testing.T) {
	iters := 400
	if testing.Short() {
		iters = 100
	}
	for _, e := range litmus.ForbiddenSuite() {
		e := e
		t.Run(e.Test.Name, func(t *testing.T) {
			for _, mode := range sim.Modes {
				res, err := RunLitmus7(context.Background(), e.Test, iters, mode, nil, sim.DefaultConfig().WithSeed(21), Litmus7Options{})
				if err != nil {
					t.Fatal(err)
				}
				if res.TargetCount != 0 {
					t.Errorf("litmus7 %v observed forbidden target %d times", mode, res.TargetCount)
				}
			}
			pt, err := core.Convert(e.Test)
			if err != nil {
				t.Fatal(err)
			}
			pres, err := RunPerpLE(context.Background(), pt, targetCounter(t, pt), iters,
				PerpLEOptions{Exhaustive: true, Heuristic: true}, sim.DefaultConfig().WithSeed(22))
			if err != nil {
				t.Fatal(err)
			}
			if got := pres.Exhaustive.Counts[0]; got != 0 {
				t.Errorf("PerpLE exhaustive counted forbidden target %d times", got)
			}
			if got := pres.Heuristic.Counts[0]; got != 0 {
				t.Errorf("PerpLE heuristic counted forbidden target %d times", got)
			}
		})
	}
}

// TestPerpLEExposesAllAllowedTargets mirrors Figure 9's headline: PerpLE
// with the exhaustive counter observes the target outcome of every test
// x86-TSO allows.
func TestPerpLEExposesAllAllowedTargets(t *testing.T) {
	iters := 2000
	if testing.Short() {
		iters = 600
	}
	for _, e := range litmus.AllowedSuite() {
		e := e
		t.Run(e.Test.Name, func(t *testing.T) {
			pt, err := core.Convert(e.Test)
			if err != nil {
				t.Fatal(err)
			}
			// Cap the cubic frame space of the TL=3 tests; the paper makes
			// the same practicality observation in Section VII-B.
			cap := 0
			if pt.TL() >= 3 {
				cap = 400
			}
			pres, err := RunPerpLE(context.Background(), pt, targetCounter(t, pt), iters,
				PerpLEOptions{Exhaustive: true, Heuristic: true, ExhaustiveCap: cap}, sim.DefaultConfig().WithSeed(31))
			if err != nil {
				t.Fatal(err)
			}
			if pres.Exhaustive.Counts[0] == 0 {
				t.Errorf("exhaustive counter found no target occurrences in %d iterations", iters)
			}
			if cap == 0 && pres.Heuristic.Counts[0] > pres.Exhaustive.Counts[0] {
				t.Errorf("heuristic count %d exceeds exhaustive %d",
					pres.Heuristic.Counts[0], pres.Exhaustive.Counts[0])
			}
		})
	}
}

// TestHeuristicAccuracy reproduces Section VII-D: on the same run data,
// whenever the exhaustive counter finds the target, the heuristic finds
// it too (not necessarily the same number of times).
func TestHeuristicAccuracy(t *testing.T) {
	iters := 2000
	if testing.Short() {
		iters = 600
	}
	for _, e := range litmus.AllowedSuite() {
		pt, err := core.Convert(e.Test)
		if err != nil {
			t.Fatal(err)
		}
		cap := 0
		if pt.TL() >= 3 {
			cap = 400
		}
		pres, err := RunPerpLE(context.Background(), pt, targetCounter(t, pt), iters,
			PerpLEOptions{Exhaustive: true, Heuristic: true, ExhaustiveCap: cap}, sim.DefaultConfig().WithSeed(37))
		if err != nil {
			t.Fatal(err)
		}
		if pres.Exhaustive.Counts[0] > 0 && pres.Heuristic.Counts[0] == 0 {
			t.Errorf("%s: exhaustive found %d occurrences, heuristic found none",
				e.Test.Name, pres.Exhaustive.Counts[0])
		}
	}
}

func TestPerpLEOptionsValidation(t *testing.T) {
	pt := mustPerp(t, "sb")
	if _, err := RunPerpLE(context.Background(), pt, targetCounter(t, pt), 10, PerpLEOptions{}, sim.DefaultConfig()); err == nil {
		t.Error("no-op options accepted")
	}
}

func TestPerpLEExhaustiveCap(t *testing.T) {
	pt := mustPerp(t, "sb")
	c := targetCounter(t, pt)
	res, err := RunPerpLE(context.Background(), pt, c, 200, PerpLEOptions{Exhaustive: true, ExhaustiveCap: 50}, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.ExhaustiveN != 50 {
		t.Errorf("ExhaustiveN = %d, want 50", res.ExhaustiveN)
	}
	if res.Exhaustive.Frames != 50*50 {
		t.Errorf("frames = %d, want 2500", res.Exhaustive.Frames)
	}
}

func TestPerpLETicksAccounting(t *testing.T) {
	pt := mustPerp(t, "sb")
	c := targetCounter(t, pt)
	res, err := RunPerpLE(context.Background(), pt, c, 500, PerpLEOptions{Exhaustive: true, Heuristic: true}, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.ExhCountTicks <= res.HeurCountTicks {
		t.Errorf("exhaustive counting (%d ticks) should cost more than heuristic (%d)",
			res.ExhCountTicks, res.HeurCountTicks)
	}
	if res.TotalTicksExhaustive() != res.ExecTicks+res.ExhCountTicks {
		t.Error("exhaustive total mismatch")
	}
	if res.TotalTicksHeuristic() != res.ExecTicks+res.HeurCountTicks {
		t.Error("heuristic total mismatch")
	}
}

func TestMeasureSkew(t *testing.T) {
	pt := mustPerp(t, "sb")
	c := targetCounter(t, pt)
	res, err := RunPerpLE(context.Background(), pt, c, 20000, PerpLEOptions{Heuristic: true, KeepBufs: true}, sim.DefaultConfig().WithSeed(12))
	if err != nil {
		t.Fatal(err)
	}
	samples := MeasureSkew(pt, res.Bufs)
	if len(samples) == 0 {
		t.Fatal("no skew samples")
	}
	// Samples must be self-consistent and from cross-thread observations.
	var negative, positive int
	for _, s := range samples {
		if s.Skew != s.N-s.M {
			t.Fatalf("inconsistent sample %+v", s)
		}
		if s.Observer == s.Storer {
			t.Fatalf("self-observation %+v", s)
		}
		if s.Skew < 0 {
			negative++
		} else if s.Skew > 0 {
			positive++
		}
	}
	// The skew distribution is two-sided (threads run both ahead and
	// behind; Figure 12).
	if negative == 0 || positive == 0 {
		t.Errorf("one-sided skew distribution: %d negative, %d positive", negative, positive)
	}
	// Filtering by pair keeps only matching samples.
	vals := SkewValues(samples, 0, 1)
	if len(vals) == 0 {
		t.Error("no samples for observer 0 / storer 1")
	}
	if len(SkewValues(samples, -1, -1)) != len(samples) {
		t.Error("unfiltered SkewValues dropped samples")
	}
}

// outcomeKey renders a register file the way Litmus7Result histogram
// keys are built: the reference the interned histogram is checked against.
func outcomeKey(regs [][]int64) string {
	key := make([]byte, 0, 64)
	for _, rs := range regs {
		for _, v := range rs {
			key = appendKeyInt(key, v)
		}
		if len(rs) > 0 {
			key = append(key, '|')
		}
	}
	return string(key)
}

func TestOutcomeKey(t *testing.T) {
	key := outcomeKey([][]int64{{1, 0}, {2}})
	if key != "1,0,|2,|" {
		t.Errorf("outcomeKey = %q", key)
	}
}
