package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parseOne(t *testing.T, src string) (*token.FileSet, []*Package) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "fix.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return fset, []*Package{{Dir: ".", Path: "fix", Files: []*ast.File{file}}}
}

// reportAt is a test analyzer that reports one diagnostic per line
// listed, to exercise suppression without needing type information.
func reportAt(name string, lines ...int) *Analyzer {
	a := &Analyzer{Name: name, Doc: "test"}
	a.Run = func(pass *Pass) {
		for _, file := range pass.Pkg.Files {
			for _, line := range lines {
				pos := pass.Fset.File(file.Pos()).LineStart(line)
				pass.Reportf(pos, "finding on line %d", line)
			}
		}
	}
	return a
}

func TestSuppressionSameAndPreviousLine(t *testing.T) {
	fset, pkgs := parseOne(t, `package fix

func f() {
	_ = 1 //perple:allow nodeterminism reasoned same-line suppression
	//perple:allow nodeterminism reasoned previous-line suppression
	_ = 2
	_ = 3
}
`)
	r := &Runner{Analyzers: []*Analyzer{reportAt("nodeterminism", 4, 6, 7)}}
	diags := r.Run(fset, pkgs)
	if len(diags) != 1 || diags[0].Line != 7 {
		t.Fatalf("want only the line-7 finding to survive, got %v", diags)
	}
}

func TestSuppressionIsPerAnalyzer(t *testing.T) {
	fset, pkgs := parseOne(t, `package fix

func f() {
	_ = 1 //perple:allow nodeterminism reason that names the wrong pass
}
`)
	r := &Runner{Analyzers: []*Analyzer{reportAt("hotalloc", 4)}}
	diags := r.Run(fset, pkgs)
	if len(diags) != 1 || diags[0].Analyzer != "hotalloc" {
		t.Fatalf("an allow for nodeterminism must not silence hotalloc, got %v", diags)
	}
}

func TestMalformedSuppressionsAreFindings(t *testing.T) {
	fset, pkgs := parseOne(t, `package fix

//perple:allow
func a() {}

//perple:allow nosuchpass spurious reason
func b() {}

//perple:allow hotalloc
func c() {}
`)
	r := &Runner{Analyzers: nil}
	diags := r.Run(fset, pkgs)
	if len(diags) != 3 {
		t.Fatalf("want 3 suppression findings, got %d: %v", len(diags), diags)
	}
	wants := []string{"without an analyzer", "unknown analyzer", "without a reason"}
	for i, d := range diags {
		if d.Analyzer != "suppression" || !strings.Contains(d.Message, wants[i]) {
			t.Errorf("diagnostic %d = %v, want suppression finding containing %q", i, d, wants[i])
		}
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "hotalloc", File: "a/b.go", Line: 3, Col: 9, Message: "boom"}
	if got, want := d.String(), "a/b.go:3:9: hotalloc: boom"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
