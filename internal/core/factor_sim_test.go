package core_test

import (
	"reflect"
	"testing"

	"perple/internal/core"
	"perple/internal/litmus"
	"perple/internal/sim"
)

// TestFactorizedSimBufsMatchOdometer holds the factorized counter to the
// odometer on real perpetual-run buffers at sizes around word
// boundaries, so word-edge masking, multi-word sweeps and prefix
// popcounts across words meet the value patterns the simulator
// produces: target-only counters (the interval count) and full outcome
// sets (inclusion–exclusion), over whole runs and capped runs. The
// random-buffer half of this differential is
// TestFactorizedMultiWordMatchesOdometer.
func TestFactorizedSimBufsMatchOdometer(t *testing.T) {
	for _, name := range []string{"sb", "iriw", "rwc-fenced", "safe027", "podwr001", "safe007"} {
		test, err := litmus.SuiteTest(name)
		if err != nil {
			t.Fatal(err)
		}
		pt, err := core.Convert(test)
		if err != nil {
			t.Fatal(err)
		}
		target, err := core.NewTargetCounter(pt)
		if err != nil {
			t.Fatal(err)
		}
		pos, err := core.ConvertAllOutcomes(pt)
		if err != nil {
			t.Fatal(err)
		}
		full := core.NewCounter(pt, pos)
		ns := []int{63, 64, 65, 129}
		if pt.TL() == 3 {
			ns = []int{63, 65}
		}
		cp, err := sim.CompilePerpetual(pt)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range ns {
			run, err := sim.NewPerpetualRunner(cp).Run(n, sim.DefaultConfig().WithSeed(int64(n)))
			if err != nil {
				t.Fatal(err)
			}
			// A capped run, as perple-exh counts one: the first n of 2n
			// iterations, whose loads may observe later stores.
			long, err := sim.NewPerpetualRunner(cp).Run(2*n, sim.DefaultConfig().WithSeed(int64(n)))
			if err != nil {
				t.Fatal(err)
			}
			capped := &core.BufSet{N: n, Bufs: make([][]int64, len(long.Bufs.Bufs))}
			for th, b := range long.Bufs.Bufs {
				capped.Bufs[th] = b[:pt.Reads[th]*n]
			}
			for _, bs := range []*core.BufSet{run.Bufs, capped} {
				for _, c := range []*core.Counter{target, full} {
					odo, err := c.CountExhaustive(bs)
					if err != nil {
						t.Fatal(err)
					}
					fac, ok, err := c.CountFactorized(bs)
					if err != nil || !ok {
						t.Fatalf("%s n=%d: ok=%v err=%v", name, n, ok, err)
					}
					if !reflect.DeepEqual(fac, odo) {
						t.Fatalf("%s n=%d: factorized %+v, odometer %+v", name, n, fac, odo)
					}
				}
			}
		}
	}
}
