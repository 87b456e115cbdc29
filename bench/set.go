package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json this program reads.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadBenchmark(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	return &b, nil
}

// setFile is a captured set of runs of one commit: every workload run
// several times untraced and once traced, each in its own process.
type setFile struct {
	Commit  string   `json:"commit"`
	Host    hostInfo `json:"host"`
	Seed    int64    `json:"seed"`
	Seconds float64  `json:"seconds"`
	Runs    []setRun `json:"runs"`
}

type setRun struct {
	Workload string  `json:"workload"`
	Trace    int     `json:"trace"`
	Result   *result `json:"result"`
}

type hostInfo struct {
	Go         string `json:"go"`
	OS         string `json:"os"`
	NumCPU     int    `json:"nproc"`
	Gomaxprocs int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
}

func host() hostInfo {
	h := hostInfo{
		Go: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH,
		NumCPU: runtime.NumCPU(), Gomaxprocs: runtime.GOMAXPROCS(0),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// runAll runs every workload `runs` times untraced and once traced, each
// run a fresh child process so heap and RSS never carry over, prints a
// per-workload summary, and writes the set to out when given. Several
// comma-separated out files capture as many sets with their runs
// interleaved, so a drift in host speed hits every set alike.
func runAll(stdout, stderr io.Writer, seed int64, seconds float64, runs int, out, commit string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	outs := strings.Split(out, ",")
	sets := make([]setFile, len(outs))
	for i := range sets {
		sets[i] = setFile{Commit: commit, Host: host(), Seed: seed, Seconds: seconds}
	}
	var failed []string
	for _, w := range workloads(".") {
		for i := 0; i <= runs; i++ {
			trace := 0
			if i == runs {
				trace = 1
			}
			for s := range sets {
				var buf bytes.Buffer
				cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
				cmd.Stdout = io.MultiWriter(stdout, &buf)
				cmd.Stderr = stderr
				runErr := cmd.Run()
				res, err := lastResult(buf.Bytes())
				if runErr != nil || err != nil {
					failed = append(failed, fmt.Sprintf("%s trace=%d: %v %v", w.name, trace, runErr, err))
				}
				if res != nil {
					sets[s].Runs = append(sets[s].Runs, setRun{Workload: w.name, Trace: trace, Result: res})
				}
			}
		}
	}
	for i := range sets {
		printSet(stdout, &sets[i])
		if outs[i] == "" {
			continue
		}
		data, err := json.MarshalIndent(&sets[i], "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outs[i], append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d run(s) failed: %s", len(failed), strings.Join(failed, "; "))
	}
	return nil
}

// lastResult parses the result line a workload run ends with.
func lastResult(stdout []byte) (*result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &res, nil
}

// values collects one metric over the set's runs of a workload.
func (s *setFile) values(workload string, trace int, metric string) []float64 {
	var xs []float64
	for _, r := range s.Runs {
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		if m, ok := r.Result.Metrics[metric]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func printSet(w io.Writer, s *setFile) {
	type key struct {
		workload, metric string
		trace            int
	}
	seen := map[key]bool{}
	var keys []key
	for _, r := range s.Runs {
		for name := range r.Result.Metrics {
			k := key{r.Workload, name, r.Trace}
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		if a.trace != b.trace {
			return a.trace < b.trace
		}
		return a.metric < b.metric
	})
	fmt.Fprintf(w, "%-18s %-34s %12s %12s %12s %3s\n", "workload", "metric", "median", "q1", "q3", "n")
	for _, k := range keys {
		sm := summarize(s.values(k.workload, k.trace, k.metric))
		fmt.Fprintf(w, "%-18s %-34s %12s %12s %12s %3d\n", k.workload, k.metric,
			formatValue(sm.Median), formatValue(sm.Q1), formatValue(sm.Q3), sm.N)
	}
}

func loadSet(path string) (*setFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s setFile
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	return &s, nil
}

// compareSets prints, per workload × metric, both sets' medians and
// interquartile ranges and a verdict. End-to-end metrics are judged
// against their BENCHMARK.json bound; per-layer metrics have none and
// are listed for attribution only.
func compareSets(w io.Writer, benchPath, basePath, newPath string) error {
	bf, err := loadBenchmark(benchPath)
	if err != nil {
		return err
	}
	base, err := loadSet(basePath)
	if err != nil {
		return err
	}
	cur, err := loadSet(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "base %s (%s), new %s (%s)\n", basePath, base.Commit, newPath, cur.Commit)
	fmt.Fprintf(w, "%-18s %-34s %12s %12s %12s %12s %8s  %s\n",
		"workload", "metric", "base_median", "base_iqr", "new_median", "new_iqr", "delta", "verdict")
	row := func(workload string, trace int, m benchMetric) {
		b, c := base.values(workload, trace, m.Name), cur.values(workload, trace, m.Name)
		if len(b) == 0 || len(c) == 0 {
			return
		}
		sb, sc := summarize(b), summarize(c)
		verdict, delta := "-", 0.0
		if m.Bound != nil {
			verdict, delta = compareMetric(b, c, *m.Bound, m.Better == "lower")
		} else if sb.Median != 0 {
			delta = (sc.Median - sb.Median) / math.Abs(sb.Median)
		}
		fmt.Fprintf(w, "%-18s %-34s %12s %12s %12s %12s %+7.1f%%  %s\n", workload, m.Name,
			formatValue(sb.Median), formatValue(sb.Q3-sb.Q1), formatValue(sc.Median), formatValue(sc.Q3-sc.Q1), delta*100, verdict)
	}
	for _, wl := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			row(wl.Name, 0, m)
		}
		for _, m := range bf.PerLayer {
			row(wl.Name, 1, m)
		}
	}
	return nil
}
