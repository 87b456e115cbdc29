// Command perple-vet runs the repo's invariant analyzers
// (internal/analysis) over module packages:
//
//   - nodeterminism: no wall clocks, global math/rand, or map-ordered
//     output on the result path;
//   - hotalloc: //perple:hotpath functions contain no
//     allocation-causing constructs (-escapes additionally cross-checks
//     the compiler's own escape analysis);
//   - mergeorder: map iteration never feeds encoders, writers, or
//     collected slices without an intervening sort;
//   - wirecompat: wire/checkpoint struct shapes match the committed
//     golden (regenerate with -update-wire).
//
// Findings are suppressed line-by-line with
//
//	//perple:allow <analyzer> <reason>
//
// on the finding's line or the line above; a suppression without a
// reason is itself a finding.
//
// Usage:
//
//	perple-vet ./...                      # vet the whole module
//	perple-vet ./internal/sim             # one package
//	perple-vet -analyzers hotalloc ./...  # a subset of passes
//	perple-vet -update-wire ./...         # rewrite the wire shape golden
//	perple-vet -json ./...                # machine-readable findings
//
// Exit status: 0 clean, 1 findings, 2 error — the same contract as
// perple lint and perple trace.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"perple/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perple-vet", flag.ContinueOnError)
	fl.SetOutput(stderr)
	jsonOut := fl.Bool("json", false, "emit findings as a JSON array")
	analyzersFlag := fl.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	noScope := fl.Bool("no-scope", false, "ignore per-analyzer package scopes (used to vet fixture trees)")
	escapes := fl.Bool("escapes", false, "also run `go build -gcflags=-m` and report heap escapes in //perple:hotpath functions")
	wireGolden := fl.String("wire-golden", "", "wire shape golden file (default: <module root>/testdata/wire_shapes.json)")
	wireRoots := fl.String("wire-roots", "", "comma-separated wire root types as import/path.Type (default: the repo's wire and checkpoint roots)")
	updateWire := fl.Bool("update-wire", false, "rewrite the wire shape golden from the current structs instead of diffing")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if fl.NArg() == 0 {
		fmt.Fprintln(stderr, "perple-vet: no packages; pass directories or ./...")
		return 2
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintf(stderr, "perple-vet: %v\n", err)
		return 2
	}

	golden := *wireGolden
	if golden == "" {
		golden = filepath.Join(loader.ModuleRoot, "testdata", "wire_shapes.json")
	}
	var roots []string
	if *wireRoots != "" {
		roots = strings.Split(*wireRoots, ",")
	}
	all := []*analysis.Analyzer{
		analysis.NewNodeterminism(),
		analysis.NewHotalloc(),
		analysis.NewMergeorder(),
		analysis.NewWirecompat(analysis.WirecompatConfig{
			GoldenPath: golden,
			Roots:      roots,
			Update:     *updateWire,
		}),
	}
	selected, err := selectAnalyzers(all, *analyzersFlag, *updateWire)
	if err != nil {
		fmt.Fprintf(stderr, "perple-vet: %v\n", err)
		return 2
	}

	pkgs, err := loader.Load(fl.Args())
	if err != nil {
		fmt.Fprintf(stderr, "perple-vet: %v\n", err)
		return 2
	}

	runner := &analysis.Runner{Analyzers: selected, NoScope: *noScope}
	diags := runner.Run(loader.Fset, pkgs)

	if *escapes {
		ediags, err := analysis.RunEscapeCheck(loader.Fset, loader.ModuleRoot, pkgs)
		if err != nil {
			fmt.Fprintf(stderr, "perple-vet: %v\n", err)
			return 2
		}
		diags = append(diags, analysis.FilterSuppressed(loader.Fset, pkgs, ediags)...)
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(stderr, "perple-vet: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, rel(loader.ModuleRoot, d))
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// selectAnalyzers filters the full set by the -analyzers flag.
// -update-wire forces wirecompat into the selection: rewriting the
// golden is a wirecompat action regardless of which passes were asked
// for.
func selectAnalyzers(all []*analysis.Analyzer, spec string, updateWire bool) ([]*analysis.Analyzer, error) {
	if spec == "" {
		return all, nil
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	seen := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (known: %s)", name, strings.Join(analysis.KnownAnalyzers, ", "))
		}
		if !seen[name] {
			out = append(out, a)
			seen[name] = true
		}
	}
	if updateWire && !seen["wirecompat"] {
		out = append(out, byName["wirecompat"])
	}
	return out, nil
}

// rel renders a diagnostic with its file path relative to the module
// root when possible — stable output regardless of invocation
// directory.
func rel(moduleRoot string, d analysis.Diagnostic) string {
	if r, err := filepath.Rel(moduleRoot, d.File); err == nil && !strings.HasPrefix(r, "..") {
		d.File = r
	}
	return d.String()
}
