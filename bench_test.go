package perple

import (
	"context"
	"fmt"
	"io"
	"testing"

	"perple/internal/experiments"
	"perple/internal/harness"
	"perple/internal/sim"
)

// Benchmarks regenerating the paper's evaluation: one per table/figure
// (BenchmarkTableII .. BenchmarkOverall run the full drivers at reduced
// iteration counts), plus wall-clock micro-benchmarks of the genuinely
// algorithmic claims (BenchmarkCount*: Algorithm 1 is N^TL, Algorithm 2
// is linear) and ablation benchmarks for the design choices DESIGN.md
// calls out. Run everything with:
//
//	go test -bench=. -benchmem
//
// Full-scale paper numbers come from `perple experiments` instead.

// ----- per-table/figure drivers -----

func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableII(io.Discard, experiments.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9(b *testing.B) {
	opts := experiments.Options{N: 500, ExhaustiveCap3: 150}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9(io.Discard, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10(b *testing.B) {
	opts := experiments.Options{N: 500, ExhaustiveCap3: 150}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10(io.Discard, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11(b *testing.B) {
	opts := experiments.Options{Quick: true}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig11(io.Discard, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12(b *testing.B) {
	opts := experiments.Options{N: 20000}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12(io.Discard, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig13(io.Discard, experiments.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeuristicAccuracy(b *testing.B) {
	opts := experiments.Options{N: 800, ExhaustiveCap3: 150}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.HeuristicAccuracy(io.Discard, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOverall(b *testing.B) {
	opts := experiments.Options{N: 800}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Overall(io.Discard, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// ----- algorithmic micro-benchmarks (wall clock) -----

// benchRun produces one perpetual run's buffers for counter benchmarks.
func benchRun(b *testing.B, name string, n int) (*PerpetualTest, *Counter, *BufSet) {
	b.Helper()
	test, err := SuiteTest(name)
	if err != nil {
		b.Fatal(err)
	}
	pt, err := Convert(test)
	if err != nil {
		b.Fatal(err)
	}
	counter, err := NewTargetCounter(pt)
	if err != nil {
		b.Fatal(err)
	}
	res, err := RunPerpLE(context.Background(), pt, counter, n, PerpLEOptions{Heuristic: true, KeepBufs: true}, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	return pt, counter, res.Bufs
}

// BenchmarkCountExhaustive measures Algorithm 1's N^TL frame walk; the
// per-op time must grow quadratically with N for the TL=2 sb test.
func BenchmarkCountExhaustive(b *testing.B) {
	for _, n := range []int{250, 500, 1000, 2000} {
		b.Run(fmt.Sprintf("sb/n=%d", n), func(b *testing.B) {
			_, counter, bufs := benchRun(b, "sb", n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := counter.CountExhaustive(context.Background(), bufs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCountHeuristic measures Algorithm 2's linear walk at the same
// sizes; comparing against BenchmarkCountExhaustive reproduces the
// paper's heuristic-vs-exhaustive speedup in host wall clock.
func BenchmarkCountHeuristic(b *testing.B) {
	for _, n := range []int{250, 500, 1000, 2000, 100000} {
		b.Run(fmt.Sprintf("sb/n=%d", n), func(b *testing.B) {
			_, counter, bufs := benchRun(b, "sb", n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := counter.CountHeuristic(context.Background(), bufs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCountExhaustiveTL3 shows the cubic blowup for a T_L=3 test
// (podwr001), the paper's Section VII-B impracticality observation.
func BenchmarkCountExhaustiveTL3(b *testing.B) {
	for _, n := range []int{100, 200, 400} {
		b.Run(fmt.Sprintf("podwr001/n=%d", n), func(b *testing.B) {
			_, counter, bufs := benchRun(b, "podwr001", n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := counter.CountExhaustive(context.Background(), bufs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCountFactorized measures the factorized exact counter on the
// same workloads as the odometer benchmarks above — sb (TL=2, cross-bound
// matrix) and podwr001 (TL=3, interval triangle count) — and at the
// campaign's exhaustive cap n=2000 on iriw (shared-existential matrix)
// and safe007 (TL=3, column-interval triangle count). The differential
// tests in internal/core prove the tallies identical; this shows the
// N^TL frame walk collapsing to bitset work.
func BenchmarkCountFactorized(b *testing.B) {
	bench := func(name string, sizes []int) {
		for _, n := range sizes {
			b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
				_, counter, bufs := benchRun(b, name, n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, ok, err := counter.CountFactorized(bufs)
					if err != nil {
						b.Fatal(err)
					}
					if !ok {
						b.Fatalf("%s fell back to the odometer", name)
					}
					_ = res
				}
			})
		}
	}
	bench("sb", []int{2000})
	bench("iriw", []int{2000})
	bench("podwr001", []int{100, 200, 400, 2000})
	bench("safe007", []int{2000})
}

// BenchmarkConvert measures the Converter itself (test + full outcome
// space), which the paper amortizes across runs.
func BenchmarkConvert(b *testing.B) {
	for _, name := range []string{"sb", "iriw", "podwr001", "rfi017"} {
		b.Run(name, func(b *testing.B) {
			test, err := SuiteTest(name)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pt, err := Convert(test)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ConvertAllOutcomes(pt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimPerpetual measures simulated-machine throughput for
// perpetual execution (iterations simulated per benchmark op) under TSO
// and PSO. sb loads on every thread and has no fence; safe022 and
// mp+fences each have a fenced writer with no loads, whose store buffer
// nothing drains once the reader finishes, so they expose any
// buffer-length cost in fence, drain or settle.
func BenchmarkSimPerpetual(b *testing.B) {
	for _, name := range []string{"sb", "safe022", "mp+fences"} {
		test, err := SuiteTest(name)
		if err != nil {
			b.Fatal(err)
		}
		pt, err := Convert(test)
		if err != nil {
			b.Fatal(err)
		}
		counter, err := NewTargetCounter(pt)
		if err != nil {
			b.Fatal(err)
		}
		for _, model := range []string{"tso", "pso"} {
			cfg := DefaultConfig()
			if model == "pso" {
				cfg.Relaxation = PSO
			}
			b.Run(name+"/"+model, func(b *testing.B) {
				const n = 10000
				for i := 0; i < b.N; i++ {
					if _, err := RunPerpLE(context.Background(), pt, counter, n, PerpLEOptions{Heuristic: true}, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSimLitmus7 measures litmus7-style simulation per mode.
func BenchmarkSimLitmus7(b *testing.B) {
	test, err := SuiteTest("sb")
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []Mode{ModeUser, ModeTimebase, ModeNone} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RunLitmus7(context.Background(), test, 5000, mode, nil, DefaultConfig(), Litmus7Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTraceVerify prices the witness-trace verification plane on
// the reused zero-allocation runner. The "off" variant is the plain
// reused-runner steady state — a compiled sb rerun on one
// Litmus7Runner, 0 allocs/op, whose gap to BenchmarkSimLitmus7 is the
// per-run setup the runner amortizes — because with verification
// disabled the recording hooks reduce to a nil check; the strided and
// full variants measure rf/co recording plus the near-linear
// consistency check per verified witness.
func BenchmarkTraceVerify(b *testing.B) {
	test, err := SuiteTest("sb")
	if err != nil {
		b.Fatal(err)
	}
	ct, err := CompileTest(test)
	if err != nil {
		b.Fatal(err)
	}
	const n = 5000
	for _, bc := range []struct {
		name string
		tv   harness.TraceVerify
	}{
		{"off", harness.TraceVerify{}},
		{"every=16", harness.TraceVerify{Every: 16}},
		{"all", harness.TraceVerify{Every: 1}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			lr, err := NewLitmus7Runner(ct, nil)
			if err != nil {
				b.Fatal(err)
			}
			if err := lr.SetTraceVerify(bc.tv); err != nil {
				b.Fatal(err)
			}
			if _, err := lr.Run(n, ModeUser, DefaultConfig()); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := lr.Run(n, ModeUser, DefaultConfig()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "iters/sec")
		})
	}
}

// BenchmarkSimLitmus7PSO measures the PSO (buggy-machine) drain path:
// unlike TSO's O(1) FIFO front, PSO drains the per-buffer minimum
// drainAt, and applyDrains probes every thread's minimum on every load —
// the probe is served by the store buffer's cached minimum instead of a
// rescan. "sb" keeps buffers shallow; "deep" runs a store-burst test
// with a widened drain window, so buffers hold many pending stores and
// the cached minimum replaces a real O(buf) scan per probe.
func BenchmarkSimLitmus7PSO(b *testing.B) {
	cfg, err := Preset("pso")
	if err != nil {
		b.Fatal(err)
	}
	deepSrc := `X86 pso-deep
{ a=0; b=0; c=0; d=0; e=0; f=0; x=0; y=0; }
 P0          | P1          ;
 MOV [a],$1  | MOV [e],$1  ;
 MOV [b],$1  | MOV [f],$1  ;
 MOV [c],$1  | MOV [x],$1  ;
 MOV [d],$1  | MOV [y],$1  ;
 MOV EAX,[x] | MOV EAX,[a] ;
 MOV EBX,[y] | MOV EBX,[b] ;
exists (0:EAX=0 /\ 1:EAX=0)
`
	deep, err := ParseLitmus(deepSrc)
	if err != nil {
		b.Fatal(err)
	}
	deepCfg := cfg
	deepCfg.DrainMax = cfg.DrainMax * 8
	sb, err := SuiteTest("sb")
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		test *Test
		cfg  Config
	}{{"sb", sb, cfg}, {"deep", deep, deepCfg}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RunLitmus7(context.Background(), bc.test, 5000, ModeUser, nil, bc.cfg, Litmus7Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ----- ablation benchmarks (design choices called out in DESIGN.md) -----

// BenchmarkAblationDrainLatency reports the target-outcome rate as the
// store-buffer drain window scales: longer residency widens the window in
// which store buffering is observable.
func BenchmarkAblationDrainLatency(b *testing.B) {
	test, err := SuiteTest("sb")
	if err != nil {
		b.Fatal(err)
	}
	pt, err := Convert(test)
	if err != nil {
		b.Fatal(err)
	}
	counter, err := NewTargetCounter(pt)
	if err != nil {
		b.Fatal(err)
	}
	for _, scale := range []int64{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("drain-x%d", scale), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.DrainMin *= scale
			cfg.DrainMax *= scale
			var hits, iters int64
			for i := 0; i < b.N; i++ {
				res, err := RunPerpLE(context.Background(), pt, counter, 5000, PerpLEOptions{Heuristic: true}, cfg.WithSeed(int64(i)+1))
				if err != nil {
					b.Fatal(err)
				}
				hits += res.Heuristic.Counts[0]
				iters += 5000
			}
			b.ReportMetric(float64(hits)/float64(iters), "hits/iter")
		})
	}
}

// BenchmarkAblationPreemption reports skew spread (P95-P5) as the
// preemption probability scales: preemption is the main skew source.
func BenchmarkAblationPreemption(b *testing.B) {
	test, err := SuiteTest("sb")
	if err != nil {
		b.Fatal(err)
	}
	pt, err := Convert(test)
	if err != nil {
		b.Fatal(err)
	}
	counter, err := NewTargetCounter(pt)
	if err != nil {
		b.Fatal(err)
	}
	for _, scale := range []float64{0, 1, 4} {
		b.Run(fmt.Sprintf("preempt-x%g", scale), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.PreemptProb *= scale
			var spread float64
			for i := 0; i < b.N; i++ {
				res, err := RunPerpLE(context.Background(), pt, counter, 20000, PerpLEOptions{Heuristic: true, KeepBufs: true}, cfg.WithSeed(int64(i)+1))
				if err != nil {
					b.Fatal(err)
				}
				samples := MeasureSkew(pt, res.Bufs)
				var min, max int64
				for _, s := range samples {
					if s.Skew < min {
						min = s.Skew
					}
					if s.Skew > max {
						max = s.Skew
					}
				}
				spread += float64(max - min)
			}
			b.ReportMetric(spread/float64(b.N), "skew-range")
		})
	}
}

// BenchmarkAblationBarrierCost reports litmus7-user runtime sensitivity
// to barrier cost, the dominant term of the paper's Figure 10 baselines.
func BenchmarkAblationBarrierCost(b *testing.B) {
	test, err := SuiteTest("sb")
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []sim.Mode{sim.ModeUser, sim.ModePthread} {
		b.Run(mode.String(), func(b *testing.B) {
			var ticks int64
			for i := 0; i < b.N; i++ {
				res, err := harness.RunLitmus7(context.Background(), test, 2000, mode, nil, DefaultConfig(), harness.Litmus7Options{})
				if err != nil {
					b.Fatal(err)
				}
				ticks += res.Ticks
			}
			b.ReportMetric(float64(ticks)/float64(b.N)/2000, "ticks/iter")
		})
	}
}
