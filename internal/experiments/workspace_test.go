package experiments

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"perple/internal/harness"
	"perple/internal/litmus"
)

// TestForEachIndexWorkerContract checks forEachIndex's contract: every
// index runs exactly once, w < workers, and no two calls with the same
// w overlap (so per-worker state indexed by w is never shared).
func TestForEachIndexWorkerContract(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 50} {
		const n = 40
		bound := max(workers, 1)
		busy := make([]atomic.Bool, bound)
		var seen [n]atomic.Int32
		err := forEachIndex(n, workers, func(w, i int) error {
			if w < 0 || w >= bound {
				return fmt.Errorf("worker %d out of range [0,%d)", w, bound)
			}
			if !busy[w].CompareAndSwap(false, true) {
				return fmt.Errorf("worker %d runs two calls at once", w)
			}
			seen[i].Add(1)
			runtime.Gosched()
			busy[w].Store(false)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range seen {
			if c := seen[i].Load(); c != 1 {
				t.Errorf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

// TestFig9Fig10WorkerInvariance checks that the per-worker workspaces
// leave Figures 9 and 10 independent of the worker count: the reports
// are byte-identical at Workers 1 and 3.
func TestFig9Fig10WorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	report := func(workers int) string {
		var b strings.Builder
		opts := Options{N: 400, Seed: 3, Workers: workers}
		if _, err := Fig9(&b, opts); err != nil {
			t.Fatal(err)
		}
		if _, err := Fig10(&b, opts); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if one, three := report(1), report(3); one != three {
		t.Errorf("reports differ between Workers 1 and 3:\n--- 1:\n%s\n--- 3:\n%s", one, three)
	}
}

// suitePass runs every tool's cell of every suite test on ws, as Figures
// 9 and 10 do; a nil ws runs each test on a fresh workspace.
func suitePass(t *testing.T, ws *harness.Workspace, n int, opts Options) []map[Tool]Measurement {
	t.Helper()
	suite := litmus.Suite()
	out := make([]map[Tool]Measurement, len(suite))
	for i, e := range suite {
		cellWS := ws
		if cellWS == nil {
			cellWS = new(harness.Workspace)
		}
		ms, err := runCells(cellWS, e, Tools, n, opts)
		if err != nil {
			t.Fatalf("%s: %v", e.Test.Name, err)
		}
		out[i] = ms
	}
	return out
}

// TestRunCellsWarmWorkspace checks what a driver gains from keeping one
// workspace: a pass over the suite on a warmed workspace allocates under
// a fixed budget far below a pass on a fresh workspace per test (~20 MB
// at n=2000), and measures exactly what that pass does. The warming pass runs
// at a larger n and another seed, so every reused array is larger than
// needed and holds another run's data.
func TestRunCellsWarmWorkspace(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const (
		n      = 2000
		budget = 2 << 20
	)
	opts := Options{Seed: 1}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fresh := suitePass(t, nil, n, opts)
	runtime.ReadMemStats(&after)
	freshAlloc := after.TotalAlloc - before.TotalAlloc

	var ws harness.Workspace
	suitePass(t, &ws, 2*n, Options{Seed: 2})
	// The smallest of several passes' deltas: TotalAlloc is process-wide,
	// so a stray goroutine of an earlier test can only inflate one.
	least := uint64(math.MaxUint64)
	for pass := 0; pass < 3; pass++ {
		runtime.ReadMemStats(&before)
		warm := suitePass(t, &ws, n, opts)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
		if !reflect.DeepEqual(warm, fresh) {
			t.Fatalf("pass %d on a warmed workspace differs from a fresh pass:\nwarm  %v\nfresh %v", pass, warm, fresh)
		}
	}
	t.Logf("suite pass at n=%d: fresh %d B, warmed %d B", n, freshAlloc, least)
	if least > budget {
		t.Fatalf("warmed suite pass allocates %d B, budget %d B (fresh pass %d B)", least, budget, freshAlloc)
	}
}

// TestFig11SweepDistinct checks that an explicit N already in Figure
// 11's sweep is not run twice, and that one outside it is appended last.
func TestFig11SweepDistinct(t *testing.T) {
	for _, c := range []struct {
		opts Options
		want []int
	}{
		{Options{}, []int{100, 1000, 10000, 100000}},
		{Options{Quick: true}, []int{100, 1000, 10000}},
		{Options{Quick: true, N: 1000}, []int{100, 1000, 10000}},
		{Options{Quick: true, N: 2000}, []int{100, 1000, 10000, 2000}},
		{Options{N: 10000}, []int{100, 1000, 10000, 100000}},
		{Options{N: 1000000}, []int{100, 1000, 10000, 100000, 1000000}},
	} {
		got := fig11Sweep(c.opts)
		if !slices.Equal(got, c.want) {
			t.Errorf("fig11Sweep(%+v) = %v, want %v", c.opts, got, c.want)
		}
	}
}
