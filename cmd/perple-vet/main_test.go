package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"perple/internal/analysis"
)

// chModuleRoot runs the test from the module root so relative fixture
// paths and the default golden resolve the same way CI invokes the
// driver.
func chModuleRoot(t *testing.T) {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	wd := dir
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod found")
		}
		dir = parent
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})
}

func TestBadFixturesExitOne(t *testing.T) {
	chModuleRoot(t)
	cases := []struct {
		name string
		args []string
	}{
		{"nodeterminism", []string{"-no-scope", "-analyzers", "nodeterminism", "internal/analysis/testdata/src/nodeterminism/bad"}},
		{"hotalloc", []string{"-no-scope", "-analyzers", "hotalloc", "internal/analysis/testdata/src/hotalloc/bad"}},
		{"mergeorder", []string{"-no-scope", "-analyzers", "mergeorder", "internal/analysis/testdata/src/mergeorder/bad"}},
		{"wirecompat", []string{"-no-scope", "-analyzers", "wirecompat",
			"-wire-golden", "internal/analysis/testdata/src/wirecompat/bad/shapes_stale.json",
			"-wire-roots", "perple/internal/analysis/testdata/src/wirecompat/bad.Payload",
			"internal/analysis/testdata/src/wirecompat/bad"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb strings.Builder
			if code := run(tc.args, &out, &errb); code != 1 {
				t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
			}
			if !strings.Contains(out.String(), tc.name+":") {
				t.Fatalf("stdout carries no %s findings:\n%s", tc.name, out.String())
			}
		})
	}
}

func TestGoodFixturesExitZero(t *testing.T) {
	chModuleRoot(t)
	for _, name := range []string{"nodeterminism", "hotalloc", "mergeorder"} {
		t.Run(name, func(t *testing.T) {
			var out, errb strings.Builder
			args := []string{"-no-scope", "-analyzers", name, "internal/analysis/testdata/src/" + name + "/good"}
			if code := run(args, &out, &errb); code != 0 {
				t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
			}
		})
	}
}

func TestJSONOutput(t *testing.T) {
	chModuleRoot(t)
	var out, errb strings.Builder
	args := []string{"-json", "-no-scope", "-analyzers", "nodeterminism", "internal/analysis/testdata/src/nodeterminism/bad"}
	if code := run(args, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, errb.String())
	}
	var diags []analysis.Diagnostic
	if err := json.Unmarshal([]byte(out.String()), &diags); err != nil {
		t.Fatalf("stdout is not a JSON diagnostic array: %v\n%s", err, out.String())
	}
	if len(diags) == 0 || diags[0].Analyzer != "nodeterminism" || diags[0].Line == 0 {
		t.Fatalf("unexpected diagnostics: %+v", diags)
	}
}

func TestUsageErrorsExitTwo(t *testing.T) {
	chModuleRoot(t)
	for name, args := range map[string][]string{
		"no packages":      {},
		"unknown analyzer": {"-analyzers", "nosuchpass", "./internal/sim"},
		"bad flag":         {"-definitely-not-a-flag"},
	} {
		t.Run(name, func(t *testing.T) {
			var out, errb strings.Builder
			if code := run(args, &out, &errb); code != 2 {
				t.Fatalf("exit = %d, want 2", code)
			}
		})
	}
}
