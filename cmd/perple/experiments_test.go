package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var updateExperimentsGolden = flag.Bool("experiments.update-golden", false, "rewrite testdata/experiments.golden from the current drivers")

// completedLine matches the per-experiment wall-clock line, the only
// part of the report that varies from run to run.
var completedLine = regexp.MustCompile(`(?m)^\[[a-z0-9]+ completed in [^\]]*\]\n`)

// TestExperimentsGolden pins the paper's whole evaluation byte for
// byte: `perple experiments` with every experiment, seed 1 and the
// paper's default iteration counts and caps, as EXPERIMENTS.md quotes
// it. Only the timing lines are dropped before the comparison.
func TestExperimentsGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := experimentsCmd([]string{"-exp", "all", "-seed", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("perple experiments exited %d: %s", code, stderr.Bytes())
	}
	got := completedLine.ReplaceAll(stdout.Bytes(), nil)
	path := filepath.Join("testdata", "experiments.golden")
	if *updateExperimentsGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -experiments.update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
			var g, w []byte
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("report differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
			}
		}
	}
}
