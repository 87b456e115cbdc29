package main

import (
	"io"
	"math"
	"regexp"
	"testing"

	"perple/internal/experiments"
)

// tinySizes shrinks every workload so the smoke test runs each one end
// to end in well under a second. Only sizes change; every code path,
// check and metric stays.
var tinySizes = map[string]func(*workload){
	wPaper: func(w *workload) {
		w.paper = experiments.Options{N: 100, Quick: true}
		w.spec.Iterations = 100
	},
	wLitmus7: func(w *workload) { w.spec.Iterations, w.spec.ShardSize = 1000, 500 },
	wPerple:  func(w *workload) { w.spec.Iterations, w.spec.ShardSize = 400, 200 },
	wFleet:   func(w *workload) { w.spec.Iterations, w.spec.ShardSize = 100, 50 },
}

func tinyWorkloads(t *testing.T) []*workload {
	t.Helper()
	ws := workloads("..")
	for _, w := range ws {
		shrink, ok := tinySizes[w.name]
		if !ok {
			t.Fatalf("no tiny size for workload %s", w.name)
		}
		shrink(w)
	}
	return ws
}

func loadBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	bf, err := loadBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestBenchmarkSchema(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if bf.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the -seconds default is %d", bf.RunSeconds, runSeconds)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" || len(bf.Command) < 2 || bf.Command[1] != "bench/run.sh" {
		t.Errorf("command %q / paths %q do not name bench/run.sh inside bench", bf.Command, bf.Paths)
	}
	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %s", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("%s name %q used twice", kind, name)
		}
		seen[name] = true
	}
	workloadSet := map[string]bool{}
	for _, w := range bf.Workloads {
		checkName("workload", w.Name)
		workloadSet[w.Name] = true
	}
	e2e := map[string]bool{}
	var setupBound, maxBound float64
	for _, m := range bf.EndToEnd {
		checkName("end-to-end metric", m.Name)
		e2e[m.Name] = true
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want in (0, 0.25]", m.Name, m.Bound)
			continue
		}
		maxBound = math.Max(maxBound, *m.Bound)
		if m.Name == "setup_s" {
			setupBound = *m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s: unit %q better %q, want s lower", m.Unit, m.Better)
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %v must exist and be the largest (%v)", setupBound, maxBound)
	}
	perLayer := map[string]string{}
	for _, m := range bf.PerLayer {
		checkName("per-layer metric", m.Name)
		perLayer[m.Name] = m.Unit
		if m.Bound != nil {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}

	// The code's workloads and layer map must be exactly the file's.
	for _, w := range workloads("..") {
		if !workloadSet[w.name] {
			t.Errorf("workload %s is not in BENCHMARK.json", w.name)
		}
	}
	if len(workloads("..")) != len(bf.Workloads) {
		t.Errorf("code defines %d workloads, BENCHMARK.json %d", len(workloads("..")), len(bf.Workloads))
	}
	if len(layers) != len(bf.PerLayer) {
		t.Errorf("layer map has %d rows, BENCHMARK.json %d per-layer metrics", len(layers), len(bf.PerLayer))
	}
	for _, row := range layers {
		if unit, ok := perLayer[row.name]; !ok || unit != row.unit {
			t.Errorf("layer row %s (%s) not in BENCHMARK.json per_layer with that unit", row.name, row.unit)
		}
		if len(row.moves) == 0 {
			t.Errorf("layer row %s names no end-to-end metric", row.name)
		}
		for _, e := range row.moves {
			if !e2e[e.metric] {
				t.Errorf("layer row %s moves unknown end-to-end metric %s", row.name, e.metric)
			}
			if len(e.workloads) == 0 {
				t.Errorf("layer row %s names no workload for %s", row.name, e.metric)
			}
			for _, w := range e.workloads {
				if !workloadSet[w] {
					t.Errorf("layer row %s names unknown workload %s", row.name, w)
				}
			}
		}
	}
}

// TestSmoke runs every workload once untraced and once traced at tiny
// sizes: each declared metric must be emitted with its unit, and no op
// may fail.
func TestSmoke(t *testing.T) {
	bf := loadBenchmarkFile(t)
	for _, w := range tinyWorkloads(t) {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w, 1, 0, traced, "", io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || exitCode(res) != 0 {
				t.Errorf("%s traced=%v: correct %v attempted %d failed %d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s unit %q, want %q", w.name, traced, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestPerturbedGoldenFails shows that an output digest differing from
// the golden one fails every op and the run's exit status.
func TestPerturbedGoldenFails(t *testing.T) {
	for _, w := range tinyWorkloads(t) {
		res, err := runWorkload(w, 1, 0, false, "0000000000000000000000000000000000000000000000000000000000000000", io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Correct || res.Failed != res.Attempted || exitCode(res) != 1 {
			t.Errorf("%s: correct %v attempted %d failed %d exit %d, want every op failed and exit 1",
				w.name, res.Correct, res.Attempted, res.Failed, exitCode(res))
		}
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// Expected values from Python's statistics.median and
	// statistics.quantiles(xs, n=4).
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{2.44, 2.53, 2.55, 2.57, 2.71, 2.91}, 2.5075, 2.56, 2.76},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 27.5, 55, 82.5},
	}
	for _, c := range cases {
		s := summarize(c.xs)
		if !near(s.Q1, c.q1) || !near(s.Median, c.med) || !near(s.Q3, c.q3) || s.N != len(c.xs) {
			t.Errorf("summarize(%v) = %+v, want q1 %v median %v q3 %v", c.xs, s, c.q1, c.med, c.q3)
		}
	}
	if s := summarize([]float64{7}); s.Median != 7 || s.Q1 != 7 || s.Q3 != 7 || s.N != 1 {
		t.Errorf("one sample: %+v", s)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestCompareMetric(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100}
	cases := []struct {
		name        string
		cur         []float64
		bound       float64
		lowerBetter bool
		want        string
	}{
		{"faster beyond bound and IQR", []float64{80, 81, 79, 80, 82}, 0.1, true, verdictBetter},
		{"slower beyond bound and IQR", []float64{120, 121, 119, 120, 122}, 0.1, true, verdictWorse},
		{"within bound", []float64{104, 105, 103, 104, 106}, 0.1, true, verdictSame},
		{"higher-is-better gain", []float64{120, 121, 119, 120, 122}, 0.1, false, verdictBetter},
		{"noisy new set", []float64{60, 140, 70, 130, 100}, 0.1, true, verdictUnresolved},
		{"noisy but every run faster", []float64{50, 90, 60, 85, 70}, 0.1, true, verdictBetter},
	}
	for _, c := range cases {
		if got, _ := compareMetric(base, c.cur, c.bound, c.lowerBetter); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	// A base set whose own spread exceeds the bound cannot resolve a
	// small bound either way.
	noisyBase := []float64{70, 130, 80, 120, 100}
	if got, _ := compareMetric(noisyBase, []float64{120, 121, 119, 120, 122}, 0.05, true); got != verdictUnresolved {
		t.Errorf("noisy base: verdict %s, want %s", got, verdictUnresolved)
	}
}
