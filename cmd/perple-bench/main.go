// perple-bench parses `go test -bench` output into a stable JSON summary
// so benchmark trajectories can be committed and diffed across PRs.
//
// Usage:
//
//	go test -run '^$' -bench 'BenchmarkSim|BenchmarkCount' -benchmem . |
//	    go run ./cmd/perple-bench -o BENCH_simcore.json
//
//	go test -run '^$' -bench '...' -benchtime=1x . |
//	    go run ./cmd/perple-bench -check BENCH_simcore.json -maxratio 3
//
// Every benchmark line becomes one entry: ns/op, B/op, allocs/op, any
// custom ReportMetric units, a derived iters_per_sec (1e9/ns_per_op, the
// benchmark-op rate), and the host shape the entry was measured under
// (num_cpu, gomaxprocs — the latter parsed from go test's -N name
// suffix, so a `-cpu 1,2,4,8` sweep records each point's true
// parallelism). When a benchmark appears under several GOMAXPROCS
// values, its entries are keyed "name/cpu=N" to keep the scaling curve's
// points distinct; a benchmark measured at a single value keeps its
// plain name, so ordinary runs produce the same keys as before.
//
// With -check, instead of writing a summary the tool compares each
// parsed entry's ns/op against the named baseline file and exits 1 if
// any benchmark regressed by more than -maxratio; benchmarks absent
// from the baseline are reported and skipped. B/op is gated too, at a
// fixed 1.5x for baselines of at least 1 KB: allocation does not
// jitter with the machine, so a multiple means a lost reuse or a
// revived growth. B/op averages first-op warm-up over the op count, so
// it is compared only when the run and the baseline executed the same
// number of ops (equal -benchtime Nx). A custom metric whose unit ends
// in /op (a count per op, such as uploads/op) is gated at -maxratio,
// lower being better, whenever the baseline has it: a count does not
// jitter with the machine, so it catches a change in how much work an
// op does that its time, dominated by fixed costs, hides. Non-benchmark
// lines pass through untouched either way, so the tool can sit at the
// end of a pipe without hiding failures.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Entry is one benchmark's parsed result.
type Entry struct {
	N       int64   `json:"n"`
	NsPerOp float64 `json:"ns_per_op"`
	// Pointers distinguish a measured zero (the steady-state goal) from
	// a run without -benchmem, where the columns are absent entirely.
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	ItersPerSec float64            `json:"iters_per_sec"`
	NumCPU      int                `json:"num_cpu"`
	Gomaxprocs  int                `json:"gomaxprocs"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Summary is the committed JSON document. The host block stamps the
// machine shape the numbers came from, so a diff across commits can
// tell a code regression from a different benchmark box.
type Summary struct {
	Note       string           `json:"note"`
	Go         string           `json:"go"`
	GOOS       string           `json:"goos"`
	GOARCH     string           `json:"goarch"`
	NumCPU     int              `json:"num_cpu"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Benchmarks map[string]Entry `json:"benchmarks"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

// parsed is one benchmark line before key resolution: the same base
// name may recur under different GOMAXPROCS in a -cpu sweep.
type parsed struct {
	base  string
	procs int
	e     Entry
}

func main() {
	out := flag.String("o", "BENCH_simcore.json", "output JSON path")
	note := flag.String("note", "go test -bench snapshot; see scripts/bench.sh", "free-form provenance note")
	check := flag.String("check", "", "baseline JSON to compare ns/op against instead of writing a summary")
	maxRatio := flag.Float64("maxratio", 3.0, "with -check: fail when ns/op exceeds baseline by this factor")
	flag.Parse()

	lines, err := parseStdin()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perple-bench: reading stdin:", err)
		os.Exit(1)
	}
	if len(lines) == 0 {
		fmt.Fprintln(os.Stderr, "perple-bench: no benchmark lines found on stdin")
		os.Exit(1)
	}
	benchmarks := resolveKeys(lines)

	if *check != "" {
		if !checkBaseline(*check, benchmarks, *maxRatio) {
			os.Exit(1)
		}
		return
	}

	sum := Summary{
		Note:       *note,
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchmarks: benchmarks,
	}
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perple-bench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perple-bench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "perple-bench: wrote %d benchmarks to %s\n", len(benchmarks), *out)
}

func parseStdin() ([]parsed, error) {
	var lines []parsed
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // pass through so the pipe stays readable
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		base, procs := splitCPUSuffix(m[1])
		n, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		e := Entry{N: n, NumCPU: runtime.NumCPU(), Gomaxprocs: procs}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				e.NsPerOp = v
			case "B/op":
				b := v
				e.BytesPerOp = &b
			case "allocs/op":
				a := v
				e.AllocsPerOp = &a
			default:
				if e.Metrics == nil {
					e.Metrics = map[string]float64{}
				}
				e.Metrics[unit] = v
			}
		}
		if e.NsPerOp > 0 {
			e.ItersPerSec = 1e9 / e.NsPerOp
		}
		lines = append(lines, parsed{base: base, procs: procs, e: e})
	}
	return lines, sc.Err()
}

// resolveKeys assigns each parsed line its summary key: the plain base
// name, or base/cpu=N when the run measured the benchmark under more
// than one GOMAXPROCS (a -cpu sweep). Later lines overwrite earlier
// ones with the same key, matching go test's own last-wins reporting.
func resolveKeys(lines []parsed) map[string]Entry {
	procsSeen := map[string]map[int]bool{}
	for _, l := range lines {
		if procsSeen[l.base] == nil {
			procsSeen[l.base] = map[int]bool{}
		}
		procsSeen[l.base][l.procs] = true
	}
	benchmarks := make(map[string]Entry, len(lines))
	for _, l := range lines {
		key := l.base
		if len(procsSeen[l.base]) > 1 {
			key = fmt.Sprintf("%s/cpu=%d", l.base, l.procs)
		}
		benchmarks[key] = l.e
	}
	return benchmarks
}

// B/op gate: a benchmark whose baseline allocates at least bytesFloor
// per op fails when its B/op exceeds the baseline by more than
// bytesMaxRatio, provided both ran the same op count.
const (
	bytesMaxRatio = 1.5
	bytesFloor    = 1 << 10
)

// checkBaseline compares new entries against the committed baseline and
// reports every benchmark whose ns/op or count per op (a custom /op
// metric) exceeds baseline by more than maxRatio, or whose B/op exceeds
// it by more than bytesMaxRatio (see bytesFloor). A new key is looked
// up exactly and then as key/cpu=N, so a plain single-GOMAXPROCS smoke
// run still matches a committed -cpu sweep's curve point. Returns false when any regression was found.
func checkBaseline(path string, benchmarks map[string]Entry, maxRatio float64) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perple-bench:", err)
		return false
	}
	var base Summary
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "perple-bench: parsing %s: %v\n", path, err)
		return false
	}
	ok, compared, bytesCompared := true, 0, 0
	for key, e := range benchmarks {
		ref, found := base.Benchmarks[key]
		if !found {
			ref, found = base.Benchmarks[fmt.Sprintf("%s/cpu=%d", key, e.Gomaxprocs)]
		}
		if !found || ref.NsPerOp <= 0 {
			fmt.Fprintf(os.Stderr, "perple-bench: %s: no baseline, skipped\n", key)
			continue
		}
		compared++
		ratio := e.NsPerOp / ref.NsPerOp
		if ratio > maxRatio {
			fmt.Fprintf(os.Stderr, "perple-bench: REGRESSION %s: %.0f ns/op vs baseline %.0f (%.2fx > %.2fx)\n",
				key, e.NsPerOp, ref.NsPerOp, ratio, maxRatio)
			ok = false
		}
		for unit, v := range e.Metrics {
			if rv := ref.Metrics[unit]; strings.HasSuffix(unit, "/op") && rv > 0 && v/rv > maxRatio {
				fmt.Fprintf(os.Stderr, "perple-bench: REGRESSION %s: %g %s vs baseline %g (%.2fx > %.2fx)\n",
					key, v, unit, rv, v/rv, maxRatio)
				ok = false
			}
		}
		if e.BytesPerOp == nil || ref.BytesPerOp == nil || *ref.BytesPerOp < bytesFloor || e.N != ref.N {
			continue
		}
		bytesCompared++
		if ratio := *e.BytesPerOp / *ref.BytesPerOp; ratio > bytesMaxRatio {
			fmt.Fprintf(os.Stderr, "perple-bench: REGRESSION %s: %.0f B/op vs baseline %.0f (%.2fx > %.2fx)\n",
				key, *e.BytesPerOp, *ref.BytesPerOp, ratio, bytesMaxRatio)
			ok = false
		}
	}
	if compared == 0 {
		fmt.Fprintf(os.Stderr, "perple-bench: no benchmarks matched baseline %s\n", path)
		return false
	}
	if ok {
		fmt.Fprintf(os.Stderr, "perple-bench: %d benchmarks within %.2fx of %s (B/op within %.2fx for %d at the baseline's op count)\n",
			compared, maxRatio, path, bytesMaxRatio, bytesCompared)
	}
	return ok
}

// splitCPUSuffix separates go test's -N GOMAXPROCS name suffix. go test
// omits the suffix when GOMAXPROCS is 1, so a bare name reports 1.
func splitCPUSuffix(name string) (string, int) {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name, 1
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil || n <= 0 {
		return name, 1
	}
	return name[:i], n
}
