package perple

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"perple/internal/litmus"
)

// TestCorpusFilesRoundTrip parses every shipped .litmus file and checks
// it against its in-code counterpart: the files under testdata/suite are
// the on-disk form of the built-in corpus (Table II plus the
// non-convertible examples), usable with perple suite -dir.
func TestCorpusFilesRoundTrip(t *testing.T) {
	dir := filepath.Join("testdata", "suite")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*Test{}
	for _, e := range Suite() {
		byName[e.Test.Name] = e.Test
	}
	for _, nc := range litmus.NonConvertible() {
		byName[nc.Name] = nc
	}

	parsed := 0
	for _, entry := range entries {
		if !strings.HasSuffix(entry.Name(), ".litmus") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, entry.Name()))
		if err != nil {
			t.Fatal(err)
		}
		test, err := ParseLitmus(string(src))
		if err != nil {
			t.Errorf("%s: %v", entry.Name(), err)
			continue
		}
		parsed++
		want, ok := byName[test.Name]
		if !ok {
			t.Errorf("%s: parsed test %q has no in-code counterpart", entry.Name(), test.Name)
			continue
		}
		if test.T() != want.T() || test.TL() != want.TL() {
			t.Errorf("%s: [T,TL]=[%d,%d], want [%d,%d]",
				test.Name, test.T(), test.TL(), want.T(), want.TL())
		}
		for ti := range want.Threads {
			for ii, in := range want.Threads[ti].Instrs {
				if test.Threads[ti].Instrs[ii] != in {
					t.Errorf("%s thread %d instr %d: %v, want %v",
						test.Name, ti, ii, test.Threads[ti].Instrs[ii], in)
				}
			}
		}
		if !test.Target.Equal(want.Target) {
			t.Errorf("%s: target %v, want %v", test.Name, test.Target, want.Target)
		}
	}
	if want := len(byName); parsed != want {
		t.Errorf("parsed %d corpus files, want %d", parsed, want)
	}
}
