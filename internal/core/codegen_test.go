package core

import (
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// parseGo syntax-checks a generated source file. That the generated
// counters compile and count what Counter counts is
// TestGeneratedCountersMatchCounter's job.
func parseGo(t *testing.T, name, src string) {
	t.Helper()
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, name, src, 0); err != nil {
		t.Errorf("%s: generated code does not parse: %v\n%s", name, err, src)
	}
}

func TestGeneratedFilesSB(t *testing.T) {
	pt := mustConvert(t, "sb")
	pos, err := ConvertAllOutcomes(pt)
	if err != nil {
		t.Fatal(err)
	}
	files := GeneratedFiles(pt, pos)
	for _, want := range []string{"sb_t0.s", "sb_t1.s", "sb_count.go", "sb_counth.go", "sb_params.txt"} {
		if _, ok := files[want]; !ok {
			t.Errorf("missing generated file %s (have %v)", want, SortedFileNames(files))
		}
	}
	parseGo(t, "sb_count.go", files["sb_count.go"])
	parseGo(t, "sb_counth.go", files["sb_counth.go"])

	// The exhaustive counter must loop over both frame indices.
	if !strings.Contains(files["sb_count.go"], "for n0 :=") ||
		!strings.Contains(files["sb_count.go"], "for n1 :=") {
		t.Errorf("exhaustive counter missing frame loops:\n%s", files["sb_count.go"])
	}
	// The heuristic counter must loop over the anchor only.
	if strings.Contains(files["sb_counth.go"], "for n1 :=") {
		t.Errorf("heuristic counter loops over non-anchor index:\n%s", files["sb_counth.go"])
	}
	// Figure 6's p_out_0 inequalities appear in the exhaustive source.
	if !strings.Contains(files["sb_count.go"], "buf0[n0] <= n1") ||
		!strings.Contains(files["sb_count.go"], "buf1[n1] <= n0") {
		t.Errorf("exhaustive counter missing Figure 6 conditions:\n%s", files["sb_count.go"])
	}
}

func TestGenerateParams(t *testing.T) {
	pt := mustConvert(t, "mp")
	params := GenerateParams(pt)
	if !strings.Contains(params, "t0_reads 0") || !strings.Contains(params, "t1_reads 2") {
		t.Errorf("params file wrong:\n%s", params)
	}
}

func TestGenerateAsmSB(t *testing.T) {
	pt := mustConvert(t, "sb")
	asm := GenerateAsm(pt, 0)
	for _, want := range []string{
		"thread0_loop:",
		"ADD   RAX, 1", // sequence n+1
		"MOV   [x], RAX",
		"MOV   RBX, [y]",
		"MOV   [RDI + 8*RAX + 0], RBX", // buf spill
		"JL    thread0_loop",
	} {
		if !strings.Contains(asm, want) {
			t.Errorf("thread 0 asm missing %q:\n%s", want, asm)
		}
	}
}

func TestGenerateAsmMultiplier(t *testing.T) {
	pt := mustConvert(t, "amd3")
	asm := GenerateAsm(pt, 0)
	// amd3 thread 0 stores 2n+1 and 2n+2 to x: the k=2 multiply must
	// appear.
	if !strings.Contains(asm, "IMUL  RAX, 2") {
		t.Errorf("amd3 asm missing k=2 multiply:\n%s", asm)
	}
}

func TestGenerateAsmFence(t *testing.T) {
	pt := mustConvert(t, "amd5")
	asm := GenerateAsm(pt, 0)
	if !strings.Contains(asm, "MFENCE") {
		t.Errorf("amd5 asm missing MFENCE:\n%s", asm)
	}
}

// TestGeneratedCountHContainsPins checks that sb's generated COUNTH
// spells out Figure 8's pin and comparisons; what the generated counters
// count is TestGeneratedCountersMatchCounter's job.
func TestGeneratedCountHContainsPins(t *testing.T) {
	pt := mustConvert(t, "sb")
	pos, err := ConvertAllOutcomes(pt)
	if err != nil {
		t.Fatal(err)
	}
	src := GenerateCountGo(pt, pos, true)
	if !strings.Contains(src, "rf pin") && !strings.Contains(src, "fr pin") {
		t.Errorf("heuristic source has no pin steps:\n%s", src)
	}
	// Figure 8 substitutes thread 1's index from buf0; the generated
	// source must index buf1 with the derived m1.
	if !strings.Contains(src, "buf1[m1]") {
		t.Errorf("heuristic source does not index buf1 with pinned m1:\n%s", src)
	}
}

func TestSanitizeIdent(t *testing.T) {
	if got := sanitizeIdent("mp+staleld"); got != "mp_staleld" {
		t.Errorf("sanitizeIdent = %q", got)
	}
	if got := sanitizeIdent("rwc-unfenced"); got != "rwc_unfenced" {
		t.Errorf("sanitizeIdent = %q", got)
	}
}

func TestNeedsHelpers(t *testing.T) {
	// sb is single-sequence with no existential variables: its generated
	// counters are pure inequalities needing no helpers.
	sbPT := mustConvert(t, "sb")
	sbPos, err := ConvertAllOutcomes(sbPT)
	if err != nil {
		t.Fatal(err)
	}
	if NeedsHelpers(sbPos) {
		t.Error("sb should not need helpers")
	}
	// amd3 has k_x = 2: decoding helpers are required.
	pt := mustConvert(t, "amd3")
	pos, err := ConvertAllOutcomes(pt)
	if err != nil {
		t.Fatal(err)
	}
	if !NeedsHelpers(pos) {
		t.Error("amd3 has multi-sequence constraints; helpers should be needed")
	}
	files := GeneratedFiles(pt, pos)
	if _, ok := files["amd3_helpers.go"]; !ok {
		t.Error("helpers file missing")
	}
	// The helpers file is helpers.go itself after its package clause,
	// under the generated header.
	src, err := os.ReadFile("helpers.go")
	if err != nil {
		t.Fatal(err)
	}
	_, body, ok := strings.Cut(string(src), "package core\n")
	if !ok {
		t.Fatal("helpers.go has no package clause")
	}
	want := "// Code generated by the PerpLE Converter. DO NOT EDIT.\n\npackage counters\n" + body
	if got := files["amd3_helpers.go"]; got != want {
		t.Errorf("amd3_helpers.go is not helpers.go under the generated header:\n%s", got)
	}
}

func TestSortedFileNames(t *testing.T) {
	files := map[string]string{"b.go": "", "a.s": "", "c.txt": ""}
	got := SortedFileNames(files)
	if len(got) != 3 || got[0] != "a.s" || got[1] != "b.go" || got[2] != "c.txt" {
		t.Errorf("sorted names = %v", got)
	}
}

func TestPinAndRelStrings(t *testing.T) {
	for k := PinRF; k <= PinDiagonal; k++ {
		if k.String() == "" {
			t.Errorf("pin kind %d unnamed", int(k))
		}
	}
	for r := RF; r <= EQZero; r++ {
		if r.String() == "" {
			t.Errorf("rel %d unnamed", int(r))
		}
	}
}
