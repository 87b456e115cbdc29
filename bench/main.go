// Command perplebench is the repository's end-to-end benchmark: one run
// drives one workload through the stable top-level entry points (the
// Section VII drivers, campaign.New(...).Run, and a loopback
// campaign.NewServer + campaign.NewWorker fleet) for a fixed time,
// checks every op's output against golden digests, and prints each
// metric by name and unit. A traced run (-trace 1) instead replays the
// workload's own job list call by call and reports per-layer metrics.
//
// Run it through bench/run.sh, which builds it from source inside the
// checkout:
//
//	bash bench/run.sh -workload fleet-durable -seed 1 -seconds 25 -trace 0
//	bash bench/run.sh -workload all -runs 5 -o set.json   # every workload, child processes
//	bash bench/run.sh -workload all -runs 5 -o a.json,b.json  # two interleaved sets
//	bash bench/run.sh -compare base.json new.json         # verdict per workload × metric
//
// The last line of a workload run is one JSON object with the keys
// correct, attempted, failed and metrics. A wrong output, a failed
// shard or a dead letter makes the run exit 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runSeconds is the run length BENCHMARK.json fixes (run_seconds).
const runSeconds = 25

// minSetups is the fewest set-up samples a run takes; runs with fewer
// ops repeat the set-up alone. A set-up costs milliseconds, so its
// median needs more samples than an op's to hold still.
const minSetups = 15

// metric is one reported value, as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a workload run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perplebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or all (each in a child process)")
	seed := fs.Int64("seed", 1, "workload seed; 2 is held out for checking claims")
	seconds := fs.Float64("seconds", runSeconds, "how long one run measures")
	traced := fs.Int("trace", 0, "1 replays the job list with per-layer spans instead of timing ops")
	runs := fs.Int("runs", 1, "with -workload all: untraced runs per workload (one traced run follows)")
	out := fs.String("o", "", "with -workload all: write the set of results to this file (a,b: two interleaved sets)")
	commit := fs.String("commit", "", "with -workload all: commit hash recorded in the set")
	compare := fs.Bool("compare", false, "compare two set files: -compare base.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perplebench: -compare wants two set files")
			return 2
		}
		if err := compareSets(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "perplebench:", err)
			return 1
		}
		return 0
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	if *name == "all" {
		if err := runAll(stdout, stderr, *seed, *seconds, *runs, *out, *commit); err != nil {
			fmt.Fprintln(stderr, "perplebench:", err)
			return 1
		}
		return 0
	}
	w, err := findWorkload(workloads("."), *name)
	if err != nil {
		fmt.Fprintln(stderr, "perplebench:", err)
		return 2
	}
	golden, err := loadGolden(filepath.Join("bench", "testdata", "golden.json"))
	if err != nil {
		fmt.Fprintln(stderr, "perplebench:", err)
		return 1
	}
	res, err := runWorkload(w, *seed, *seconds, *traced == 1, golden[w.name][strconv.FormatInt(*seed, 10)], stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perplebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perplebench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return exitCode(res)
}

// exitCode is a finished run's exit status: 1 when any op failed or
// produced a wrong output, else 0.
func exitCode(res *result) int {
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// loadGolden reads the golden digests: workload → seed → SHA-256 of the
// workload's output at its measured size.
func loadGolden(path string) (map[string]map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading golden digests: %w", err)
	}
	var g map[string]map[string]string
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	return g, nil
}

// runWorkload runs one workload at one seed in this process and returns
// its result line. Human-readable detail goes to log.
func runWorkload(w *workload, seed int64, seconds float64, traced bool, golden string, log io.Writer) (*result, error) {
	tmp, err := os.MkdirTemp("", "perplebench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	r, err := newRunner(w, seed, tmp, golden)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "workload %s seed %d seconds %g trace %v gomaxprocs %d\n", w.name, seed, seconds, traced, runtime.GOMAXPROCS(0))
	if traced {
		return r.traced(context.Background(), seconds, log)
	}
	return r.measure(context.Background(), seconds, log)
}

// opStats is what repeated ops of one run measured.
type opStats struct {
	setup, wall, alloc []float64
	attempted, failed  int
}

// runOps runs set-up + op in a closed loop: the next op starts only
// after the previous one finished, and only while it is expected to end
// within the run's time. At least one op always runs.
func (r *runner) runOps(ctx context.Context, seconds float64, maxOps int, log io.Writer) (*opStats, error) {
	st := &opStats{}
	start := time.Now()
	for maxOps <= 0 || st.attempted < maxOps {
		// Every op starts from a collected heap, so one op's garbage never
		// lands in the next one's time.
		runtime.GC()
		t0 := time.Now()
		p, err := r.setup()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		st.setup = append(st.setup, time.Since(t0).Seconds())
		a0 := totalAlloc()
		t1 := time.Now()
		out, err := r.op(ctx, p)
		wall := time.Since(t1).Seconds()
		alloc := totalAlloc() - a0
		r.teardown(p)
		st.attempted++
		var digest string
		if err == nil {
			digest, err = r.check(out)
		}
		if err != nil {
			st.failed++
			fmt.Fprintf(log, "op %d failed: %v\n", st.attempted, err)
		}
		st.wall = append(st.wall, wall)
		st.alloc = append(st.alloc, float64(alloc)/1e6)
		fmt.Fprintf(log, "op %d wall %.4fs alloc %.2fMB digest %s\n", st.attempted, wall, float64(alloc)/1e6, digest)
		if time.Since(start).Seconds()+summarize(st.wall).Median > seconds {
			break
		}
	}
	return st, nil
}

// measure is the untraced run: end-to-end metrics only.
func (r *runner) measure(ctx context.Context, seconds float64, log io.Writer) (*result, error) {
	st, err := r.runOps(ctx, seconds, 0, log)
	if err != nil {
		return nil, err
	}
	for len(st.setup) < minSetups {
		t0 := time.Now()
		p, err := r.setup()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		st.setup = append(st.setup, time.Since(t0).Seconds())
		r.teardown(p)
	}
	res := &result{Correct: st.failed == 0, Attempted: st.attempted, Failed: st.failed, Metrics: map[string]metric{}}
	report := func(name, unit string, xs []float64) {
		s := summarize(xs)
		res.Metrics[name] = metric{Value: s.Median, Unit: unit}
		fmt.Fprintf(log, "%-12s median %s q1 %s q3 %s n %d %s\n", name, formatValue(s.Median), formatValue(s.Q1), formatValue(s.Q3), s.N, unit)
	}
	report("setup_s", "s", st.setup)
	report("wall_s", "s", st.wall)
	report("alloc_mb", "MB", st.alloc)
	report("max_rss_mb", "MB", []float64{maxRSSMB()})
	fmt.Fprintf(log, "digest %s\n", r.digest)
	return res, nil
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// maxRSSMB is the process's peak resident set so far, in MiB (Linux
// reports ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
