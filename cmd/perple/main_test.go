package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"perple/internal/litmus"
	"perple/internal/memmodel"
	"perple/internal/sim"
)

// runPerple invokes the dispatcher in-process with captured output.
func runPerple(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = dispatch(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func runLint(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	return runPerple(t, append([]string{"lint"}, args...)...)
}

func writeLitmus(t *testing.T, dir, name, src string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const sbSrc = `X86 sb
{ x=0; y=0; }
 P0          | P1          ;
 MOV [x],$1  | MOV [y],$1  ;
 MOV EAX,[y] | MOV EAX,[x] ;
exists (0:EAX=0 /\ 1:EAX=0)
`

func TestLintCleanTest(t *testing.T) {
	dir := t.TempDir()
	writeLitmus(t, dir, "sb.litmus", sbSrc)
	code, out, _ := runLint(t, dir)
	if code != 0 {
		t.Fatalf("exit %d, want 0; output:\n%s", code, out)
	}
	if !strings.Contains(out, "ok: target") || !strings.Contains(out, "tso-only") {
		t.Errorf("missing ok line:\n%s", out)
	}
}

func TestLintForbiddenTargetWarns(t *testing.T) {
	dir := t.TempDir()
	src := strings.Replace(sbSrc, "exists (0:EAX=0 /\\ 1:EAX=0)", "exists (0:EAX=1 /\\ 1:EAX=1)", 1)
	// (1,1) is SC-allowed, so use mp shape instead for a forbidden target.
	src = `X86 mp
{ x=0; y=0; }
 P0          | P1          ;
 MOV [x],$1  | MOV EAX,[y] ;
 MOV [y],$1  | MOV EBX,[x] ;
exists (1:EAX=1 /\ 1:EBX=0)
`
	writeLitmus(t, dir, "mp.litmus", src)
	code, out, _ := runLint(t, dir)
	if code != 0 {
		t.Fatalf("exit %d, want 0 (warnings are not fatal by default):\n%s", code, out)
	}
	if !strings.Contains(out, "warn:") || !strings.Contains(out, "forbidden") {
		t.Errorf("missing forbidden warning:\n%s", out)
	}
	if code, _, _ := runLint(t, "-strict", dir); code != 1 {
		t.Errorf("-strict exit %d, want 1", code)
	}
}

func TestLintMalformedCondition(t *testing.T) {
	dir := t.TempDir()
	src := strings.Replace(sbSrc, "0:EAX=0", "0:ECX=0", 1) // undefined register
	writeLitmus(t, dir, "bad.litmus", src)
	code, out, _ := runLint(t, dir)
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "error:") || !strings.Contains(out, "line 6") {
		t.Errorf("error should carry the source line:\n%s", out)
	}
}

func TestLintUnsatisfiable(t *testing.T) {
	dir := t.TempDir()
	src := strings.Replace(sbSrc, "0:EAX=0", "0:EAX=7", 1) // 7 never stored to y
	writeLitmus(t, dir, "unsat.litmus", src)
	code, out, _ := runLint(t, dir)
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "unsatisfiable") {
		t.Errorf("missing unsatisfiable error:\n%s", out)
	}
}

func TestLintWitness(t *testing.T) {
	dir := t.TempDir()
	writeLitmus(t, dir, "sb.litmus", sbSrc)
	_, out, _ := runLint(t, "-witness", dir)
	if !strings.Contains(out, "rf:") || !strings.Contains(out, "co:") {
		t.Errorf("missing witness rendering:\n%s", out)
	}
}

func TestLintSuite(t *testing.T) {
	code, out, _ := runLint(t, "-suite")
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s", code, out)
	}
	if !strings.Contains(out, "40 tests: 0 errors") {
		t.Errorf("suite lint summary unexpected:\n%s", out)
	}
}

func TestLintNoInputs(t *testing.T) {
	code, _, errOut := runLint(t)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "no inputs") {
		t.Errorf("missing usage error: %q", errOut)
	}
}

const mpSrc = `X86 mp
{ x=0; y=0; }
 P0          | P1          ;
 MOV [x],$1  | MOV EAX,[y] ;
 MOV [y],$1  | MOV EBX,[x] ;
exists (1:EAX=1 /\ 1:EBX=0)
`

func TestDispatchUnknownCommand(t *testing.T) {
	for _, args := range [][]string{nil, {"help"}, {"bogus"}, {"-n", "5"}} {
		code, out, errOut := runPerple(t, args...)
		if code != 2 {
			t.Errorf("perple %v: exit %d, want 2", args, code)
		}
		if out != "" {
			t.Errorf("perple %v: wrote stdout %q", args, out)
		}
		for _, c := range commands {
			if !strings.Contains(errOut, "  "+c.name+" ") {
				t.Errorf("perple %v: command list lacks %q:\n%s", args, c.name, errOut)
			}
		}
	}
	if _, _, errOut := runPerple(t, "bogus"); !strings.Contains(errOut, `unknown command "bogus"`) {
		t.Errorf("unknown command not named: %q", errOut)
	}
}

func TestDispatchBadFlagExitsTwo(t *testing.T) {
	for _, c := range commands {
		if code, _, _ := runPerple(t, c.name, "-no-such-flag"); code != 2 {
			t.Errorf("%s -no-such-flag: exit %d, want 2", c.name, code)
		}
	}
	// A run is one seeded stream: no flag splits it.
	for _, args := range [][]string{{"suite", "-intra-workers", "4"}, {"trace", "-suite", "-workers", "3"}} {
		if code, _, errOut := runPerple(t, args...); code != 2 || !strings.Contains(errOut, "flag provided but not defined") {
			t.Errorf("%v: exit %d, stderr %q; want 2 and an undefined flag", args, code, errOut)
		}
	}
}

// TestTracePSOTimebaseFindsCycle is the negative oracle smoke: a PSO
// machine checked against x86-TSO must fail with exit 1 and a rendered
// cycle.
func TestTracePSOTimebaseFindsCycle(t *testing.T) {
	path := writeLitmus(t, t.TempDir(), "mp.litmus", mpSrc)
	code, out, errOut := runPerple(t, "trace", "-preset", "pso", "-mode", "timebase", "-n", "2000", path)
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s%s", code, out, errOut)
	}
	if !strings.Contains(out, "mp: FAIL:") || !strings.Contains(out, "P0#0 -[ppo]-> P0#1") {
		t.Errorf("missing violation and cycle:\n%s", out)
	}
	if code, out, _ := runPerple(t, "trace", "-mode", "timebase", "-n", "2000", path); code != 0 {
		t.Errorf("TSO machine: exit %d, want 0:\n%s", code, out)
	}
}

var hostTime = regexp.MustCompile(`host [^\n]*`)

// TestRunPresetPSOMatchesPSORelaxation pins that -preset pso is the
// default machine with PSO relaxation, the configuration the retired
// -model pso flag built.
func TestRunPresetPSOMatchesPSORelaxation(t *testing.T) {
	code, got, errOut := runPerple(t, "run", "-test", "mp", "-preset", "pso", "-n", "3000")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	test, err := litmus.SuiteTest("mp")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig().WithSeed(1)
	cfg.Relaxation = memmodel.PSO
	var want bytes.Buffer
	if err := runTest(&want, test, "perple-heur", 3000, cfg, "target", false, -1); err != nil {
		t.Fatal(err)
	}
	if g, w := hostTime.ReplaceAllString(got, "host"), hostTime.ReplaceAllString(want.String(), "host"); g != w {
		t.Errorf("-preset pso differs from PSO relaxation:\n%s\nwant:\n%s", g, w)
	}
}

func TestRunExhCapZeroIsCampaignDefault(t *testing.T) {
	_, out, _ := runPerple(t, "run", "-test", "sb", "-tool", "perple-exh", "-exhcap", "0", "-n", "2100")
	if !strings.Contains(out, "examined the first 2000 of 2100 iterations") {
		t.Errorf("-exhcap 0 did not cap at 2000:\n%s", out)
	}
	_, out, _ = runPerple(t, "run", "-test", "sb", "-tool", "perple-exh", "-n", "2100")
	if strings.Contains(out, "examined the first") || !strings.Contains(out, "frames examined: 4410000") {
		t.Errorf("default -exhcap is not uncapped:\n%s", out)
	}
}

func TestInvalidNumbersExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"experiments", "-exp", "table2", "-n", "-5"},
		{"run", "-test", "sb", "-trace", "-1"},
		{"trace", "-suite", "-every", "-2"},
		{"trace", "-suite", "-every", "0"},
	} {
		code, out, errOut := runPerple(t, args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if out != "" || !strings.Contains(errOut, "must be ≥") {
			t.Errorf("%v: stdout %q, stderr %q", args, out, errOut)
		}
	}
}
