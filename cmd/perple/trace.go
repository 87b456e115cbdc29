package main

import (
	"context"
	"fmt"
	"io"

	"perple/internal/harness"
	"perple/internal/litmus"
	"perple/internal/sim"
)

// traceCmd runs litmus tests on the simulated machine with witness-trace
// recording on and checks every recorded rf/co witness against a memory
// model with the near-linear checker of internal/trace. It is the
// simulator's runtime conformance oracle: where lint classifies targets
// statically and the litmus7 harness counts outcomes, trace certifies
// that each sampled execution the machine actually produced is
// consistent with x86-TSO (or SC under -sc) — and prints a minimal
// human-readable cycle for each one that is not.
//
//	perple trace -suite                        # verify the built-in suite
//	perple trace file.litmus dir/ ...          # verify files and directories
//	perple trace -suite -preset pso            # fault-injected machine: expect violations
//	perple trace -suite -every 16 -n 100000    # sample every 16th iteration
//	perple trace -suite -sc                    # verify against SC (sb will fail: that
//	                                           # IS store buffering)
//
// Exit status: 0 all witnesses consistent, 1 violations found, 2 usage
// or execution error.
func traceCmd(args []string, stdout, stderr io.Writer) int {
	fl := newFlags("trace", stderr)
	suite := fl.Bool("suite", false, "verify the built-in suite instead of files")
	sf := addSimFlags(fl, 2000)
	every := fl.Int("every", 1, "sampling stride: verify every k-th iteration")
	mode := fl.String("mode", "user", "litmus7 synchronization mode (user, userfence, pthread, timebase, none)")
	sc := fl.Bool("sc", false, "verify against sequential consistency instead of x86-TSO")
	reports := fl.Int("reports", harness.DefaultTraceReports, "violation reports to render per test")
	if fl.Parse(args) != nil {
		return 2
	}

	simMode, err := sim.ParseMode(*mode)
	if err != nil {
		return usageErr(fl, "%v", err)
	}
	cfg, err := sf.config()
	if err != nil {
		return usageErr(fl, "%v", err)
	}
	if *every < 1 {
		return usageErr(fl, "-every must be ≥ 1")
	}

	var tests []*litmus.Test
	switch {
	case *suite:
		tests = litmus.Builtin()
	case fl.NArg() == 0:
		return usageErr(fl, "no inputs; pass .litmus files or directories, or -suite")
	default:
		for _, arg := range fl.Args() {
			paths, err := litmus.Files(arg)
			if err != nil {
				return usageErr(fl, "%v", err)
			}
			for _, p := range paths {
				t, err := litmus.ParseFile(p)
				if err != nil {
					return usageErr(fl, "%s: %v", p, err)
				}
				tests = append(tests, t)
			}
		}
	}

	tv := harness.TraceVerify{Every: *every, SC: *sc, MaxReports: *reports}
	model := "x86-TSO"
	if *sc {
		model = "SC"
	}
	fmt.Fprintf(stdout, "verifying %d test(s) against %s: %d iterations each, stride %d, machine %s, mode %s\n",
		len(tests), model, *sf.n, *every, *sf.preset, *mode)

	var checked, violations int64
	for _, t := range tests {
		res, err := harness.RunLitmus7(context.Background(), t, *sf.n, simMode, nil, cfg, harness.Litmus7Options{TraceVerify: tv})
		if err != nil {
			return usageErr(fl, "%s: %v", t.Name, err)
		}
		checked += res.TracesVerified
		violations += res.TraceViolations
		if res.TraceViolations == 0 {
			fmt.Fprintf(stdout, "%s: ok: %d witnesses consistent\n", t.Name, res.TracesVerified)
			continue
		}
		fmt.Fprintf(stdout, "%s: FAIL: %d of %d witnesses violate %s\n",
			t.Name, res.TraceViolations, res.TracesVerified, model)
		for _, rep := range res.TraceReports {
			fmt.Fprint(stdout, indent(rep))
		}
	}
	fmt.Fprintf(stdout, "%d witnesses checked, %d violation(s)\n", checked, violations)
	if violations > 0 {
		return 1
	}
	return 0
}
