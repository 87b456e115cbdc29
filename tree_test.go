package perple

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// modulePath is the import path of this repository's root package.
const modulePath = "perple"

// testOnlyPackages are the packages under internal/ that no shipped
// program imports, each with the reason it stays a package of its own.
var testOnlyPackages = map[string]string{
	"internal/analysis/hotpath": "the shared test reference of the core, sim and harness hotpath_allocs tests",
}

// TestProductionTreeHoldsNoTestOnlyCode keeps test-only code out of the
// production tree. Every package under internal/ must be reachable
// through non-test imports from a shipped entry point — a cmd/ or
// examples/ main, the bench/ module or the root facade — and no non-test
// file may declare a name ending in ForTest.
func TestProductionTreeHoldsNoTestOnlyCode(t *testing.T) {
	dirs := goPackageDirs(t)

	var roots []string
	for _, dir := range dirs {
		if dir == "." || dir == "bench" || strings.HasPrefix(dir, "cmd/") || strings.HasPrefix(dir, "examples/") {
			roots = append(roots, dir)
		}
	}
	reached := map[string]bool{}
	for len(roots) > 0 {
		dir := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if reached[dir] {
			continue
		}
		reached[dir] = true
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, imp := range pkg.Imports {
			if imp == modulePath {
				roots = append(roots, ".")
			} else if rel, ok := strings.CutPrefix(imp, modulePath+"/"); ok {
				roots = append(roots, rel)
			}
		}
	}
	for _, dir := range dirs {
		if !strings.HasPrefix(dir, "internal/") || reached[dir] {
			continue
		}
		if _, ok := testOnlyPackages[dir]; !ok {
			t.Errorf("%s: no cmd/, examples/, bench/ or root package imports it outside tests; fold it into the tests that use it", dir)
		}
	}
	for dir := range testOnlyPackages {
		if reached[dir] {
			t.Errorf("%s is listed as test-only but a shipped program imports it; drop it from testOnlyPackages", dir)
		}
	}

	fset := token.NewFileSet()
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range declaredNames(f) {
				if strings.HasSuffix(name.Name, "ForTest") {
					t.Errorf("%s: %s is a test hook in a non-test file; use the unexported state from an in-package test", fset.Position(name.Pos()), name.Name)
				}
			}
		}
	}
}

// goPackageDirs lists, relative to the repository root, every directory
// holding non-test Go files outside testdata trees.
func goPackageDirs(t *testing.T) []string {
	t.Helper()
	seen := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			seen[filepath.ToSlash(filepath.Dir(path))] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	dirs := make([]string, 0, len(seen))
	for dir := range seen {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	return dirs
}

// declaredNames returns the identifiers a file declares at top level,
// methods included.
func declaredNames(f *ast.File) []*ast.Ident {
	var names []*ast.Ident
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			names = append(names, d.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					names = append(names, s.Name)
				case *ast.ValueSpec:
					names = append(names, s.Names...)
				}
			}
		}
	}
	return names
}
