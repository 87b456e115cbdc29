package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"perple/internal/core"
	"perple/internal/litmus"
)

// convertCmd is the PerpLE Converter front end: it reads a litmus test
// (a litmus7-style file, or a named test from the built-in perpetual
// suite), converts it to its perpetual counterpart and writes the
// Converter's output artifacts — per-thread perpetual assembly, the
// exhaustive and heuristic outcome counters as Go source, and the
// t_i_reads parameters file (Section V-A of the paper).
//
//	perple convert -test sb -o out/            # suite test by name
//	perple convert -file my.litmus -o out/     # litmus7-style file
//	perple convert -test sb -print             # dump to stdout
//	perple convert -test sb -outcomes all      # all outcomes, not just target
//	perple convert -list                       # list suite tests
func convertCmd(args []string, stdout, stderr io.Writer) int {
	fl := newFlags("convert", stderr)
	testName := fl.String("test", "", "suite test name (see -list)")
	file := fl.String("file", "", "litmus7-style test file")
	outDir := fl.String("o", ".", "output directory for generated files")
	print := fl.Bool("print", false, "print generated files to stdout instead of writing them")
	outcomes := fl.String("outcomes", "target", "outcomes of interest: target or all")
	explain := fl.Bool("explain", false, "narrate the conversion steps (paper Figures 6 and 8) instead of emitting files")
	list := fl.Bool("list", false, "list the built-in perpetual suite and exit")
	if fl.Parse(args) != nil {
		return 2
	}
	return report(fl, func() error {
		if *list {
			for _, e := range litmus.Suite() {
				group := "forbidden"
				if e.Allowed {
					group = "allowed"
				}
				fmt.Fprintf(stdout, "%-14s [%d,%d]  %-9s  %s\n", e.Test.Name, e.Test.T(), e.Test.TL(), group, e.Test.Doc)
			}
			return nil
		}
		test, err := loadTest(*testName, *file)
		if err != nil {
			return err
		}
		pt, err := core.Convert(test)
		if err != nil {
			return err
		}
		if *explain {
			return explainConversion(stdout, pt, test, *outcomes)
		}

		var pos []*core.PerpetualOutcome
		switch *outcomes {
		case "target":
			po, err := core.ConvertOutcome(pt, test.Target)
			if err != nil {
				return err
			}
			pos = []*core.PerpetualOutcome{po}
		case "all":
			if pos, err = core.ConvertAllOutcomes(pt); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown -outcomes %q (want target or all)", *outcomes)
		}

		files := core.GeneratedFiles(pt, pos)
		if *print {
			for _, name := range core.SortedFileNames(files) {
				fmt.Fprintf(stdout, "===== %s =====\n%s\n", name, files[name])
			}
			return nil
		}
		return writeFiles(stdout, *outDir, files, "")
	})
}

// explainConversion narrates the conversion of the target (or, with
// outcomes "all", of every outcome).
func explainConversion(w io.Writer, pt *core.PerpetualTest, test *litmus.Test, outcomes string) error {
	targets := []litmus.Outcome{test.Target}
	if outcomes == "all" {
		targets = test.AllOutcomes()
	}
	for i, o := range targets {
		if i > 0 {
			fmt.Fprintln(w)
		}
		_, ex, err := core.Explain(pt, o)
		if err != nil {
			return err
		}
		fmt.Fprint(w, ex.String())
	}
	return nil
}

// writeFiles writes the Converter's artifacts under dir and prints each
// path, after prefix.
func writeFiles(w io.Writer, dir string, files map[string]string, prefix string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range core.SortedFileNames(files) {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(files[name]), 0o644); err != nil {
			return err
		}
		fmt.Fprintln(w, prefix+path)
	}
	return nil
}
