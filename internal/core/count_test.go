package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"perple/internal/litmus"
)

// total sums a result's outcome counts.
func total(r *CountResult) int64 {
	var t int64
	for _, c := range r.Counts {
		t += c
	}
	return t
}

// lockstepBufs builds the buf contents of an idealized perfectly aligned
// perpetual sb run with full store buffering: at iteration n each thread
// reads the partner's previous iteration value, so buf[n] = n.
func lockstepBufs(pt *PerpetualTest, n int) *BufSet {
	bs := NewBufSet(pt, n)
	for t := range bs.Bufs {
		for i := 0; i < n; i++ {
			if bs.Bufs[t] != nil {
				bs.Bufs[t][i] = int64(i)
			}
		}
	}
	return bs
}

func TestCountExhaustiveSBLockstep(t *testing.T) {
	pt := mustConvert(t, "sb")
	pos, err := ConvertAllOutcomes(pt)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCounter(pt, pos)
	const n = 20
	bs := lockstepBufs(pt, n)
	res, err := c.CountExhaustive(context.Background(), bs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames != n*n {
		t.Errorf("frames = %d, want %d", res.Frames, n*n)
	}
	// Outcomes enumerate as (0,0), (0,1), (1,0), (1,1). In the lockstep
	// run the target (0,0) holds exactly on the diagonal; (0,1) holds for
	// m > n; (1,0) for m < n; (1,1) never — a disjoint partition of the
	// frame space.
	want := []int64{n, n * (n - 1) / 2, n * (n - 1) / 2, 0}
	for i, w := range want {
		if res.Counts[i] != w {
			t.Errorf("outcome %d count = %d, want %d", i, res.Counts[i], w)
		}
	}
	if total(res) != n*n {
		t.Errorf("total = %d, want %d", total(res), n*n)
	}
}

func TestCountHeuristicSBLockstep(t *testing.T) {
	pt := mustConvert(t, "sb")
	pos, err := ConvertAllOutcomes(pt)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCounter(pt, pos)
	const n = 20
	bs := lockstepBufs(pt, n)
	res, err := c.CountHeuristic(context.Background(), bs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames != n {
		t.Errorf("frames = %d, want %d (linear)", res.Frames, n)
	}
	// The heuristic pins m := buf0[n] = n; the first outcome (the target)
	// holds at every pinned frame, so first-match-wins counts it N times.
	if res.Counts[0] != n {
		t.Errorf("target count = %d, want %d", res.Counts[0], n)
	}
	if total(res) != n {
		t.Errorf("total = %d, want %d", total(res), n)
	}
}

func TestCountEmptyRun(t *testing.T) {
	pt := mustConvert(t, "sb")
	c, err := NewTargetCounter(pt)
	if err != nil {
		t.Fatal(err)
	}
	bs := NewBufSet(pt, 0)
	for _, count := range []func(context.Context, *BufSet) (*CountResult, error){c.CountExhaustive, c.CountHeuristic} {
		res, err := count(context.Background(), bs)
		if err != nil {
			t.Fatal(err)
		}
		if res.Frames != 0 || total(res) != 0 {
			t.Errorf("empty run produced frames=%d total=%d", res.Frames, total(res))
		}
	}
}

func TestCountRejectsWrongShape(t *testing.T) {
	pt := mustConvert(t, "sb")
	c, err := NewTargetCounter(pt)
	if err != nil {
		t.Fatal(err)
	}
	bs := &BufSet{N: 5, Bufs: [][]int64{make([]int64, 3), make([]int64, 5)}}
	if _, err := c.CountExhaustive(context.Background(), bs); err == nil {
		t.Error("mis-sized buffer accepted by exhaustive counter")
	}
	if _, err := c.CountHeuristic(context.Background(), bs); err == nil {
		t.Error("mis-sized buffer accepted by heuristic counter")
	}
}

// randomBufs fills buffers with random plausible values: 0 or members of
// the location's sequences from iterations in [0, N).
func randomBufs(rng *rand.Rand, pt *PerpetualTest, n int) *BufSet {
	bs := NewBufSet(pt, n)
	for _, t := range pt.LoadThreads {
		for i := 0; i < n; i++ {
			for s := 0; s < pt.Reads[t]; s++ {
				loc := pt.LoadLoc[t][s]
				var v int64
				if stores := storesTo(pt, loc); len(stores) > 0 && rng.Intn(4) != 0 {
					st := stores[rng.Intn(len(stores))]
					v = st.Value(rng.Int63n(int64(n)))
				}
				bs.Bufs[t][pt.Reads[t]*i+s] = v
			}
		}
	}
	return bs
}

func storesTo(pt *PerpetualTest, loc litmus.Loc) []SeqStore {
	var out []SeqStore
	for _, s := range pt.Stores {
		if s.Loc == loc {
			out = append(out, s)
		}
	}
	return out
}

// TestHeuristicSoundness is the key property of Section IV-B: every
// heuristic hit corresponds to a real frame, so for a single outcome of
// interest the heuristic count never exceeds the exhaustive count, and a
// positive heuristic count implies a positive exhaustive count. Checked
// for every suite test over random buffer contents.
func TestHeuristicSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const n = 12
	rounds := 20
	if testing.Short() {
		rounds = 5
	}
	for _, e := range litmus.Suite() {
		pt, err := Convert(e.Test)
		if err != nil {
			t.Fatal(err)
		}
		pos, err := ConvertAllOutcomes(pt)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < rounds; round++ {
			bs := randomBufs(rng, pt, n)
			for oi, po := range pos {
				c := NewCounter(pt, []*PerpetualOutcome{po})
				exh, err := c.CountExhaustive(context.Background(), bs)
				if err != nil {
					t.Fatal(err)
				}
				heur, err := c.CountHeuristic(context.Background(), bs)
				if err != nil {
					t.Fatal(err)
				}
				if heur.Counts[0] > exh.Counts[0] {
					t.Fatalf("%s outcome %d: heuristic count %d > exhaustive %d",
						e.Test.Name, oi, heur.Counts[0], exh.Counts[0])
				}
				if heur.Counts[0] > 0 && exh.Counts[0] == 0 {
					t.Fatalf("%s outcome %d: heuristic false positive", e.Test.Name, oi)
				}
			}
		}
	}
}

// TestFirstMatchWins: with multiple outcomes of interest, at most one
// entry is incremented per frame, like the paper's generated if/else-if
// chain; totals never exceed the frame count. Each counter counts two
// runs and then the first again, so the check also pins that a reused
// Counter carries nothing from one count into the next.
func TestFirstMatchWins(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ctx := context.Background()
	for _, name := range []string{"sb", "amd3", "mp", "iriw", "podwr001"} {
		pt := mustConvert(t, name)
		pos, err := ConvertAllOutcomes(pt)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCounter(pt, pos)
		lockN := 40
		if pt.TL() >= 3 {
			lockN = 15
		}
		runs := []*BufSet{randomBufs(rng, pt, 8), lockstepBufs(pt, lockN)}
		var first [2]*CountResult
		for i, bs := range append(runs, runs[0]) {
			exh, err := c.CountExhaustive(ctx, bs)
			if err != nil {
				t.Fatal(err)
			}
			if total(exh) > exh.Frames {
				t.Errorf("%s: exhaustive total %d exceeds frames %d", name, total(exh), exh.Frames)
			}
			heur, err := c.CountHeuristic(ctx, bs)
			if err != nil {
				t.Fatal(err)
			}
			if total(heur) > int64(bs.N) {
				t.Errorf("%s: heuristic total %d exceeds N=%d", name, total(heur), bs.N)
			}
			if i == 0 {
				first = [2]*CountResult{exh, heur}
			}
			if i == 2 && (!reflect.DeepEqual(exh, first[0]) || !reflect.DeepEqual(heur, first[1])) {
				t.Errorf("%s: recount on a reused counter %+v / %+v, first count %+v / %+v",
					name, exh, heur, first[0], first[1])
			}
		}
	}
}

// TestCountHeuristicParallelCancellation: both counters poll ctx and
// return its error instead of walking the remaining frames, and so does
// the deprecated forwarder.
func TestCountHeuristicParallelCancellation(t *testing.T) {
	pt := mustConvert(t, "sb")
	c, err := NewTargetCounter(pt)
	if err != nil {
		t.Fatal(err)
	}
	bs := lockstepBufs(pt, 100000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.CountHeuristic(ctx, bs); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled heuristic count: err = %v, want context.Canceled", err)
	}
	if _, err := c.CountHeuristicParallel(ctx, bs, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled forwarded heuristic count: err = %v, want context.Canceled", err)
	}
	if _, err := c.CountExhaustive(ctx, bs); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled exhaustive count: err = %v, want context.Canceled", err)
	}
}

// The deprecated ...Parallel forwarders, which bench/ still calls, keep
// the counters' handling of empty runs and mis-shaped buffers whatever
// their ignored workers argument.

func TestCountExhaustiveParallelEmptyAndDefaults(t *testing.T) {
	pt := mustConvert(t, "sb")
	c, err := NewTargetCounter(pt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.CountExhaustiveParallel(context.Background(), NewBufSet(pt, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames != 0 {
		t.Errorf("empty run frames = %d", res.Frames)
	}
	bad := &BufSet{N: 3, Bufs: [][]int64{{0}, {0, 0, 0}}}
	if _, err := c.CountExhaustiveParallel(context.Background(), bad, 4); err == nil {
		t.Error("mis-shaped buffers accepted")
	}
}

func TestCountHeuristicParallelEmptyAndErrors(t *testing.T) {
	pt := mustConvert(t, "sb")
	c, err := NewTargetCounter(pt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.CountHeuristicParallel(context.Background(), NewBufSet(pt, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames != 0 {
		t.Errorf("empty run frames = %d", res.Frames)
	}
	bad := &BufSet{N: 3, Bufs: [][]int64{{0}, {0, 0, 0}}}
	if _, err := c.CountHeuristicParallel(context.Background(), bad, 4); err == nil {
		t.Error("mis-shaped buffers accepted")
	}
}

// TestExhaustiveMatchesBruteForce cross-checks eval against a direct
// reimplementation for sb: a frame satisfies the target iff
// buf0[n] <= m && buf1[m] <= n.
func TestExhaustiveMatchesBruteForce(t *testing.T) {
	pt := mustConvert(t, "sb")
	c, err := NewTargetCounter(pt)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	const n = 10
	for round := 0; round < 30; round++ {
		bs := randomBufs(rng, pt, n)
		res, err := c.CountExhaustive(context.Background(), bs)
		if err != nil {
			t.Fatal(err)
		}
		var want int64
		for ni := int64(0); ni < n; ni++ {
			for m := int64(0); m < n; m++ {
				if bs.Bufs[0][ni] <= m && bs.Bufs[1][m] <= ni {
					want++
				}
			}
		}
		if res.Counts[0] != want {
			t.Fatalf("round %d: exhaustive = %d, brute force = %d", round, res.Counts[0], want)
		}
	}
}

// TestHeuristicMatchesPaperFormulaSB checks COUNTH against the literal
// Figure 8 formulas for all four sb outcomes with else-if ordering.
func TestHeuristicMatchesPaperFormulaSB(t *testing.T) {
	pt := mustConvert(t, "sb")
	pos, err := ConvertAllOutcomes(pt)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCounter(pt, pos)
	rng := rand.New(rand.NewSource(23))
	const n = int64(15)
	for round := 0; round < 30; round++ {
		bs := randomBufs(rng, pt, int(n))
		res, err := c.CountHeuristic(context.Background(), bs)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]int64, 4)
		buf0, buf1 := bs.Bufs[0], bs.Bufs[1]
		inRange := func(m int64) bool { return m >= 0 && m < n }
		for ni := int64(0); ni < n; ni++ {
			m0 := buf0[ni]     // fr pin: m := buf0[n]
			m1 := buf0[ni] - 1 // rf pin: m := buf0[n] - 1
			switch {
			case inRange(m0) && buf1[m0] <= ni:
				want[0]++ // p_out_h0: buf1[buf0[n]] <= n
			case inRange(m0) && buf1[m0] >= ni+1:
				want[1]++ // p_out_h1: buf1[buf0[n]] >= n+1
			case inRange(m1) && buf1[m1] <= ni:
				want[2]++ // p_out_h2: buf1[buf0[n]-1] <= n
			case inRange(m1) && buf1[m1] >= ni+1:
				want[3]++ // p_out_h3: buf1[buf0[n]-1] >= n+1
			}
		}
		for i := range want {
			if res.Counts[i] != want[i] {
				t.Fatalf("round %d outcome %d: COUNTH = %d, Figure 8 formula = %d (counts %v want %v)",
					round, i, res.Counts[i], want[i], res.Counts, want)
			}
		}
	}
}

func TestFloorCeilDiv(t *testing.T) {
	f := func(a int64, bRaw uint8) bool {
		b := int64(bRaw%7) + 1
		fd, cd := floorDiv(a, b), ceilDiv(a, b)
		if fd*b > a || (fd+1)*b <= a {
			return false
		}
		if cd*b < a || (cd-1)*b >= a {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
