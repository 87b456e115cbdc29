// Command perple-trace runs litmus tests on the simulated machine with
// witness-trace recording on and checks every recorded rf/co witness
// against a memory model with the near-linear checker of internal/trace.
// It is the simulator's runtime conformance oracle: where perple-lint
// classifies targets statically and the litmus7 harness counts outcomes,
// perple-trace certifies that each sampled execution the machine
// actually produced is consistent with x86-TSO (or SC under -sc) —
// and prints a minimal human-readable cycle for each one that is not.
//
// Usage:
//
//	perple-trace -suite                        # verify the built-in suite
//	perple-trace file.litmus dir/ ...          # verify files and directories
//	perple-trace -suite -preset pso            # fault-injected machine: expect violations
//	perple-trace -suite -every 16 -n 100000    # sample every 16th iteration
//	perple-trace -suite -sc                    # verify against SC (sb will fail: that
//	                                           # IS store buffering)
//
// Exit status: 0 all witnesses consistent, 1 violations found, 2 usage
// or execution error.
package main

import (
	"context"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"perple/internal/harness"
	"perple/internal/litmus"
	"perple/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fl := flag.NewFlagSet("perple-trace", flag.ContinueOnError)
	fl.SetOutput(stderr)
	suite := fl.Bool("suite", false, "verify the built-in suite instead of files")
	n := fl.Int("n", 2000, "iterations per test")
	every := fl.Int("every", 1, "sampling stride: verify every k-th iteration")
	mode := fl.String("mode", "user", "litmus7 synchronization mode (user, userfence, pthread, timebase, none)")
	preset := fl.String("preset", "default", "machine preset (default, pso, slow-drain, ...)")
	seed := fl.Int64("seed", 1, "simulator seed")
	sc := fl.Bool("sc", false, "verify against sequential consistency instead of x86-TSO")
	workers := fl.Int("workers", 1, "batch workers per test (seeds derive per worker; results stay deterministic)")
	reports := fl.Int("reports", harness.DefaultTraceReports, "violation reports to render per test")
	if err := fl.Parse(args); err != nil {
		return 2
	}

	simMode, err := sim.ParseMode(*mode)
	if err != nil {
		fmt.Fprintf(stderr, "perple-trace: %v\n", err)
		return 2
	}
	cfg, err := sim.Preset(*preset)
	if err != nil {
		fmt.Fprintf(stderr, "perple-trace: %v\n", err)
		return 2
	}
	cfg = cfg.WithSeed(*seed)
	if *every < 1 {
		fmt.Fprintf(stderr, "perple-trace: -every must be ≥ 1\n")
		return 2
	}

	var tests []*litmus.Test
	switch {
	case *suite:
		for _, e := range litmus.Suite() {
			tests = append(tests, e.Test)
		}
		tests = append(tests, litmus.NonConvertible()...)
	case fl.NArg() == 0:
		fmt.Fprintln(stderr, "perple-trace: no inputs; pass .litmus files or directories, or -suite")
		return 2
	default:
		for _, arg := range fl.Args() {
			loaded, err := loadPath(arg)
			if err != nil {
				fmt.Fprintf(stderr, "perple-trace: %v\n", err)
				return 2
			}
			tests = append(tests, loaded...)
		}
	}

	tv := harness.TraceVerify{Every: *every, SC: *sc, MaxReports: *reports}
	model := "x86-TSO"
	if *sc {
		model = "SC"
	}
	fmt.Fprintf(stdout, "verifying %d test(s) against %s: %d iterations each, stride %d, machine %s, mode %s\n",
		len(tests), model, *n, *every, *preset, *mode)

	var checked, violations int64
	failed := false
	for _, t := range tests {
		res, err := harness.RunLitmus7(context.Background(), t, *n, simMode, nil, cfg, harness.Litmus7Options{Workers: *workers, TraceVerify: tv})
		if err != nil {
			fmt.Fprintf(stderr, "perple-trace: %s: %v\n", t.Name, err)
			return 2
		}
		checked += res.TracesVerified
		violations += res.TraceViolations
		if res.TraceViolations == 0 {
			fmt.Fprintf(stdout, "%s: ok: %d witnesses consistent\n", t.Name, res.TracesVerified)
			continue
		}
		failed = true
		fmt.Fprintf(stdout, "%s: FAIL: %d of %d witnesses violate %s\n",
			t.Name, res.TraceViolations, res.TracesVerified, model)
		for _, rep := range res.TraceReports {
			fmt.Fprint(stdout, indent(rep))
		}
	}
	fmt.Fprintf(stdout, "%d witnesses checked, %d violation(s)\n", checked, violations)
	if failed {
		return 1
	}
	return 0
}

// loadPath parses one .litmus file or every .litmus file under a
// directory.
func loadPath(path string) ([]*litmus.Test, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		t, err := loadFile(path)
		if err != nil {
			return nil, err
		}
		return []*litmus.Test{t}, nil
	}
	var tests []*litmus.Test
	err = filepath.WalkDir(path, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(p, ".litmus") {
			return nil
		}
		t, err := loadFile(p)
		if err != nil {
			return err
		}
		tests = append(tests, t)
		return nil
	})
	return tests, err
}

func loadFile(path string) (*litmus.Test, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t, err := litmus.Parse(string(src))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = "    " + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}
