package core_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"perple/internal/core"
	"perple/internal/litmus"
	"perple/internal/sim"
)

// TestGeneratedCountersMatchCounter runs the Converter's Go output: it
// writes GeneratedFiles for every suite test, with its full outcome set,
// into a temporary module, builds every test's Count and CountH behind
// one small main in a single offline `go build`, feeds the binary
// perpetual-run bufs and holds each generated counter to the interpreted
// one (Count to CountExhaustive, CountH to CountHeuristic). The inputs
// are whole runs at two seeds and one capped run, the first n of 2n
// iterations, whose loads may observe later stores. The bound helpers
// are shared by both sides, so FuzzBoundsVsBruteForce checks them
// against an independent reference.
func TestGeneratedCountersMatchCounter(t *testing.T) {
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module counters\n\ngo 1.22\n")

	var imports, table, input strings.Builder
	var cases []string // case label per input record, in order
	var want []string  // expected output line per input record
	for ti, e := range litmus.Suite() {
		pt, err := core.Convert(e.Test)
		if err != nil {
			t.Fatal(err)
		}
		pos, err := core.ConvertAllOutcomes(pt)
		if err != nil {
			t.Fatal(err)
		}
		files := core.GeneratedFiles(pt, pos)
		pkg := fmt.Sprintf("t%02d", ti)
		for _, name := range core.SortedFileNames(files) {
			if strings.HasSuffix(name, ".go") {
				write(filepath.Join(pkg, name), files[name])
			}
		}
		fmt.Fprintf(&imports, "\t%s \"counters/%s\"\n", pkg, pkg)
		args := []string{"n"}
		for _, th := range pt.LoadThreads {
			args = append(args, fmt.Sprintf("b[%d]", th))
		}
		call := "(" + strings.Join(args, ", ") + ")"
		fmt.Fprintf(&table, "\t%q: func(n int64, b [][]int64) ([]int64, []int64) { return %s.Count%s, %s.CountH%s },\n",
			pkg, pkg, call, pkg, call)

		counter := core.NewCounter(pt, pos)
		cp, err := sim.CompilePerpetual(pt)
		if err != nil {
			t.Fatal(err)
		}
		runner := sim.NewPerpetualRunner(cp)
		n := 60
		if pt.TL() == 3 {
			n = 25
		}
		for _, run := range []struct {
			label  string
			iters  int
			seed   int64
			capped bool
		}{
			{"seed=1", n, 1, false},
			{"seed=2", n, 2, false},
			{"capped seed=3", 2 * n, 3, true},
		} {
			res, err := runner.Run(run.iters, sim.DefaultConfig().WithSeed(run.seed))
			if err != nil {
				t.Fatal(err)
			}
			bs := res.Bufs
			if run.capped {
				bs = &core.BufSet{N: n, Bufs: make([][]int64, len(res.Bufs.Bufs))}
				for th, b := range res.Bufs.Bufs {
					bs.Bufs[th] = b[:pt.Reads[th]*n]
				}
			}
			exh, err := counter.CountExhaustive(context.Background(), bs)
			if err != nil {
				t.Fatal(err)
			}
			heur, err := counter.CountHeuristic(context.Background(), bs)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&input, "%s %d %d\n", pkg, bs.N, len(bs.Bufs))
			for _, b := range bs.Bufs {
				fmt.Fprintf(&input, "%d", len(b))
				for _, v := range b {
					fmt.Fprintf(&input, " %d", v)
				}
				input.WriteString("\n")
			}
			cases = append(cases, fmt.Sprintf("%s n=%d %s", e.Test.Name, n, run.label))
			want = append(want, fmt.Sprintf("Count=%v CountH=%v", exh.Counts, heur.Counts))
		}
	}
	write("main.go", fmt.Sprintf(countersMain, imports.String(), table.String()))

	bin := filepath.Join(dir, "counters")
	build := exec.Command(goBin, "build", "-o", bin, ".")
	build.Dir = dir
	build.Env = append(os.Environ(), "GOPROXY=off", "GOWORK=off", "GOFLAGS=-mod=mod", "GOTOOLCHAIN=local")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the generated counters: %v\n%s", err, out)
	}
	run := exec.Command(bin)
	run.Stdin = strings.NewReader(input.String())
	var stderr bytes.Buffer
	run.Stderr = &stderr
	out, err := run.Output()
	if err != nil {
		t.Fatalf("running the generated counters: %v\n%s", err, stderr.Bytes())
	}
	got := strings.Split(strings.TrimSuffix(string(out), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("generated counters answered %d of %d runs:\n%s", len(got), len(want), out)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: generated %s, interpreted %s", cases[i], got[i], want[i])
		}
	}
}

// countersMain is the main package built with the generated ones: it reads
// records of "pkg n threads" followed by one "len v…" line per thread's
// buf, and answers each with one line of Count and CountH results.
const countersMain = `package main

import (
	"bufio"
	"fmt"
	"os"

%s)

var counters = map[string]func(n int64, b [][]int64) ([]int64, []int64){
%s}

func main() {
	in := bufio.NewReader(os.Stdin)
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	for {
		var pkg string
		var n int64
		var threads int
		if _, err := fmt.Fscan(in, &pkg, &n, &threads); err != nil {
			return
		}
		b := make([][]int64, threads)
		for i := range b {
			var l int
			fmt.Fscan(in, &l)
			b[i] = make([]int64, l)
			for j := range b[i] {
				fmt.Fscan(in, &b[i][j])
			}
		}
		c, h := counters[pkg](n, b)
		fmt.Fprintf(out, "Count=%%v CountH=%%v\n", c, h)
	}
}
`
