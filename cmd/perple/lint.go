package main

import (
	"fmt"
	"io"

	"perple/internal/axiom"
	"perple/internal/litmus"
)

// lintCmd statically vets litmus tests before any cycles are spent
// running them. For each test it parses (or takes from the built-in
// suite), it runs the axiomatic x86-TSO/SC checker of internal/axiom
// over the test's declared target outcome and reports:
//
//   - error: malformed tests — parse failures, conditions referencing
//     undefined registers or locations, duplicate register writes — with
//     the offending source line;
//   - error: unsatisfiable targets (a condition constrains a value
//     outside its static domain; no execution of any model can produce
//     it);
//   - warn: forbidden targets (allowed by neither SC nor TSO — the test
//     can only ever serve as a false-positive detector);
//   - warn: SC-trivial targets (allowed under SC, so observing them says
//     nothing about store buffering);
//   - warn: vacuous targets (every TSO-consistent execution satisfies
//     them);
//   - note: tests beyond the exact-enumeration cutoff, which the checker
//     honestly refuses to classify.
//
// Usage:
//
//	perple lint file.litmus dir/ ...      # lint files and directories
//	perple lint -suite                    # lint the built-in suite
//	perple lint -witness file.litmus      # show a witness execution
//	perple lint -strict dir/              # warnings become fatal
//
// Exit status: 0 clean, 1 errors (or warnings under -strict), 2 usage.
func lintCmd(args []string, stdout, stderr io.Writer) int {
	fl := newFlags("lint", stderr)
	suite := fl.Bool("suite", false, "lint the built-in perpetual suite instead of files")
	strict := fl.Bool("strict", false, "treat warnings as errors")
	witness := fl.Bool("witness", false, "print a witness execution for each allowed target")
	maxThreads := fl.Int("max-threads", axiom.DefaultMaxThreads, "exact-enumeration cutoff: threads")
	maxEvents := fl.Int("max-events", axiom.DefaultMaxEvents, "exact-enumeration cutoff: memory events")
	if fl.Parse(args) != nil {
		return 2
	}
	lim := axiom.Limits{MaxThreads: *maxThreads, MaxEvents: *maxEvents}

	l := &linter{out: stdout, lim: lim, witness: *witness}
	switch {
	case *suite:
		for _, t := range litmus.Builtin() {
			l.lintTest(t.Name, t)
		}
	case fl.NArg() == 0:
		return usageErr(fl, "no inputs; pass .litmus files or directories, or -suite")
	default:
		for _, arg := range fl.Args() {
			paths, err := litmus.Files(arg)
			if err != nil {
				return usageErr(fl, "%v", err)
			}
			for _, p := range paths {
				l.lintFile(p)
			}
		}
	}

	fmt.Fprintf(stdout, "%d tests: %d errors, %d warnings\n", l.tests, l.errors, l.warnings)
	if l.errors > 0 || (*strict && l.warnings > 0) {
		return 1
	}
	return 0
}

type linter struct {
	out     io.Writer
	lim     axiom.Limits
	witness bool

	tests    int
	errors   int
	warnings int
}

func (l *linter) lintFile(path string) {
	t, err := litmus.ParseFile(path)
	if err != nil {
		l.tests++
		// Parse errors already carry "litmus: line N:" positions.
		l.report("error", path, err.Error())
		return
	}
	l.lintTest(path, t)
}

func (l *linter) lintTest(label string, t *litmus.Test) {
	l.tests++
	rep, err := axiom.AnalyzeWithLimits(t, l.lim)
	if err != nil {
		if _, ok := err.(*axiom.TooLargeError); ok {
			l.report("note", label, err.Error())
			return
		}
		l.report("error", label, err.Error())
		return
	}
	tgt := rep.Target
	switch {
	case tgt.Unsatisfiable:
		l.report("error", label, fmt.Sprintf("target %s is unsatisfiable: a condition constrains a value no execution can produce", t.Target))
	case tgt.Class == axiom.Forbidden:
		l.report("warn", label, fmt.Sprintf("target %s is forbidden under both SC and x86-TSO; the test can only detect conformance bugs", t.Target))
	case tgt.Class == axiom.SCAllowed:
		l.report("warn", label, fmt.Sprintf("target %s is SC-trivial: allowed under sequential consistency, so observing it says nothing about store buffering", t.Target))
	default:
		fmt.Fprintf(l.out, "%s: ok: target %s is %s (%d TSO states, %d SC)\n",
			label, t.Target, tgt.Class, len(rep.Results), len(rep.SCResults()))
	}
	if tgt.Vacuous {
		l.report("warn", label, fmt.Sprintf("target %s is vacuous: every TSO-consistent execution satisfies it", t.Target))
	}
	if l.witness && tgt.Witness != nil {
		fmt.Fprint(l.out, indent(tgt.Witness.Format()))
	}
}

func (l *linter) report(sev, label, msg string) {
	switch sev {
	case "error":
		l.errors++
	case "warn":
		l.warnings++
	}
	fmt.Fprintf(l.out, "%s: %s: %s\n", label, sev, msg)
}
