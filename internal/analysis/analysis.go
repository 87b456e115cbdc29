// Package analysis is the repo's static-analysis framework: a small,
// stdlib-only (go/ast + go/parser + go/types) counterpart to
// golang.org/x/tools/go/analysis, built because the build environment is
// offline and the module carries no dependencies. It provides shared
// package loading with full type information (load.go), position-carrying
// diagnostics, a unified `//perple:allow <analyzer> <reason>` suppression
// syntax, and the four passes that turn the repo's engineering invariants
// into compile gates:
//
//   - nodeterminism: no ambient nondeterminism on the result path
//     (wall clocks, global math/rand, map-ordered output);
//   - hotalloc: functions annotated //perple:hotpath must not contain
//     allocation-causing constructs;
//   - mergeorder: map iteration must not feed ordered sinks (encoders,
//     writers, appended slices) without an intervening sort;
//   - wirecompat: the field shapes of structs reachable from the
//     checkpoint and wire roots must match a committed golden file.
//
// cmd/perple-vet is the driver; exit codes follow perple lint
// (0 clean, 1 findings, 2 error).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding, resolved to a file position. File
// is the path as parsed (driver-relative); JSON field names are part of
// the -json output contract.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one pass over loaded packages.
type Analyzer struct {
	Name string
	Doc  string

	// Scope lists import-path suffixes (e.g. "internal/sim") the
	// analyzer applies to when the driver expands `./...`. nil means
	// every package. The driver's -no-scope flag bypasses it, which is
	// how fixture packages are vetted.
	Scope []string

	// Run analyzes one loaded package unit.
	Run func(*Pass)

	// Finish, when non-nil, runs once after every package unit, for
	// analyzers that accumulate cross-package state (wirecompat).
	Finish func(*FinishPass)
}

// AppliesTo reports whether the analyzer's scope covers the package
// import path.
func (a *Analyzer) AppliesTo(pkgPath string) bool {
	if a.Scope == nil {
		return true
	}
	for _, s := range a.Scope {
		if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) {
			return true
		}
	}
	return false
}

// Pass carries one package unit through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package
	report   func(Diagnostic)
}

// Reportf records a finding at pos. Suppression (`//perple:allow`) is
// applied by the runner, not here.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	pp := p.Fset.Position(pos)
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     pp.Filename,
		Line:     pp.Line,
		Col:      pp.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// FinishPass is the once-per-run hook context for cross-package
// analyzers.
type FinishPass struct {
	Analyzer *Analyzer
	report   func(Diagnostic)
}

// Reportf records a finding at an explicit position (which may name a
// non-Go file, e.g. a golden shapes file).
func (f *FinishPass) Reportf(pos token.Position, format string, args ...any) {
	f.report(Diagnostic{
		Analyzer: f.Analyzer.Name,
		File:     pos.Filename,
		Line:     pos.Line,
		Col:      pos.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// KnownAnalyzers names every analyzer the suppression syntax accepts;
// an allow comment naming anything else is itself a finding, so typos
// cannot silently disable nothing.
var KnownAnalyzers = []string{"nodeterminism", "hotalloc", "mergeorder", "wirecompat"}

// allowKey identifies a suppression site.
type allowKey struct {
	file string
	line int
}

// allowIndex maps suppression sites to the analyzers they silence.
type allowIndex struct {
	byLine map[allowKey]map[string]bool
	// malformed records allow comments with a missing analyzer name,
	// unknown analyzer, or empty reason; each becomes a diagnostic.
	malformed []Diagnostic
}

const allowPrefix = "//perple:allow"

// indexAllows scans the comments of every file for suppression
// directives. The unified form is
//
//	//perple:allow <analyzer> <reason>
//
// with a non-empty reason.
func indexAllows(fset *token.FileSet, files []*ast.File, known map[string]bool) *allowIndex {
	idx := &allowIndex{byLine: map[allowKey]map[string]bool{}}
	add := func(pos token.Position, analyzer string) {
		k := allowKey{file: pos.Filename, line: pos.Line}
		if idx.byLine[k] == nil {
			idx.byLine[k] = map[string]bool{}
		}
		idx.byLine[k][analyzer] = true
	}
	for _, file := range files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				pos := fset.Position(c.Pos())
				rest, ok := strings.CutPrefix(c.Text, allowPrefix)
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				switch {
				case len(fields) == 0:
					idx.malformed = append(idx.malformed, Diagnostic{
						Analyzer: "suppression", File: pos.Filename, Line: pos.Line, Col: pos.Column,
						Message: "suppression without an analyzer: write //perple:allow <analyzer> <reason>",
					})
				case !known[fields[0]]:
					idx.malformed = append(idx.malformed, Diagnostic{
						Analyzer: "suppression", File: pos.Filename, Line: pos.Line, Col: pos.Column,
						Message: fmt.Sprintf("suppression names unknown analyzer %q (known: %s)",
							fields[0], strings.Join(KnownAnalyzers, ", ")),
					})
				case len(fields) == 1:
					idx.malformed = append(idx.malformed, Diagnostic{
						Analyzer: "suppression", File: pos.Filename, Line: pos.Line, Col: pos.Column,
						Message: fmt.Sprintf("suppression without a reason: write //perple:allow %s <reason>", fields[0]),
					})
				default:
					add(pos, fields[0])
				}
			}
		}
	}
	return idx
}

// suppressed reports whether a diagnostic is silenced by an allow
// directive on its own line or the line above (doc-comment style).
func (idx *allowIndex) suppressed(d Diagnostic) bool {
	for _, line := range [2]int{d.Line, d.Line - 1} {
		if m := idx.byLine[allowKey{file: d.File, line: line}]; m != nil && m[d.Analyzer] {
			return true
		}
	}
	return false
}

// FilterSuppressed drops diagnostics silenced by //perple:allow
// directives in the loaded files. The Runner applies this to analyzer
// findings itself; the driver routes out-of-band diagnostics (the
// -escapes mode, which positions findings from compiler output rather
// than a Pass) through here so one suppression syntax governs both.
func FilterSuppressed(fset *token.FileSet, pkgs []*Package, diags []Diagnostic) []Diagnostic {
	known := map[string]bool{}
	for _, name := range KnownAnalyzers {
		known[name] = true
	}
	var allFiles []*ast.File
	for _, pkg := range pkgs {
		allFiles = append(allFiles, pkg.Files...)
	}
	idx := indexAllows(fset, allFiles, known)
	var out []Diagnostic
	for _, d := range diags {
		if !idx.suppressed(d) {
			out = append(out, d)
		}
	}
	return out
}

// Runner applies a set of analyzers to loaded package units.
type Runner struct {
	Analyzers []*Analyzer
	// NoScope disables per-analyzer package scoping (fixture vetting).
	NoScope bool
}

// Run analyzes the units and returns suppressed-filtered, sorted
// diagnostics. Malformed suppression comments are reported as
// "suppression" diagnostics alongside analyzer findings.
func (r *Runner) Run(fset *token.FileSet, pkgs []*Package) []Diagnostic {
	known := map[string]bool{}
	for _, name := range KnownAnalyzers {
		known[name] = true
	}
	for _, a := range r.Analyzers {
		known[a.Name] = true
	}
	var allFiles []*ast.File
	for _, pkg := range pkgs {
		allFiles = append(allFiles, pkg.Files...)
	}
	idx := indexAllows(fset, allFiles, known)

	var diags []Diagnostic
	sink := func(d Diagnostic) {
		if !idx.suppressed(d) {
			diags = append(diags, d)
		}
	}
	for _, a := range r.Analyzers {
		for _, pkg := range pkgs {
			if !r.NoScope && !a.AppliesTo(pkg.Path) {
				continue
			}
			a.Run(&Pass{Analyzer: a, Fset: fset, Pkg: pkg, report: sink})
		}
		if a.Finish != nil {
			a.Finish(&FinishPass{Analyzer: a, report: sink})
		}
	}
	diags = append(diags, idx.malformed...)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	// Nested inspections (a map range inside a map range) can report the
	// same finding twice; identical diagnostics collapse to one.
	dedup := diags[:0]
	for i, d := range diags {
		if i == 0 || d != diags[i-1] {
			dedup = append(dedup, d)
		}
	}
	return dedup
}
