package harness

import (
	"context"
	"strings"
	"testing"

	"perple/internal/litmus"
	"perple/internal/sim"
)

func TestFormatLitmus7Report(t *testing.T) {
	test, err := litmus.SuiteTest("sb")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunLitmus7(context.Background(), test, 2000, sim.ModeTimebase, nil, sim.DefaultConfig(), Litmus7Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := FormatLitmus7Report(res)
	for _, want := range []string{
		"Test sb Allowed",
		"Histogram (",
		"Witnesses",
		"Positive: ",
		`Condition exists (0:EAX=0 /\ 1:EAX=0)`,
		"Observation sb Sometimes",
		"Time sb ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// Target states carry the `*>` marker.
	if !strings.Contains(out, "*> 0:EAX=0; 1:EAX=0;") {
		t.Errorf("target state not flagged:\n%s", out)
	}
}

func TestFormatLitmus7ReportNever(t *testing.T) {
	test, err := litmus.SuiteTest("mp")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunLitmus7(context.Background(), test, 500, sim.ModeUser, nil, sim.DefaultConfig(), Litmus7Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := FormatLitmus7Report(res)
	if !strings.Contains(out, "Observation mp Never 0 500") {
		t.Errorf("forbidden target should read Never:\n%s", out)
	}
	if !strings.Contains(out, "No\n") {
		t.Errorf("verdict should be No:\n%s", out)
	}
	if !strings.Contains(out, "is NOT validated") {
		t.Errorf("condition line should say NOT validated:\n%s", out)
	}
	// mp's thread 0 has no registers: state lines show only thread 1.
	if strings.Contains(out, "0:EAX") {
		t.Errorf("store-only thread should not appear in states:\n%s", out)
	}
}

func TestParseStateKeyRoundTrip(t *testing.T) {
	test, err := litmus.SuiteTest("iwp23b")
	if err != nil {
		t.Fatal(err)
	}
	key := outcomeKey([][]int64{{1, 0}, {1, 1}})
	regs, ok := parseStateKey(test, key)
	if !ok {
		t.Fatalf("key %q did not parse", key)
	}
	if regs[0][0] != 1 || regs[0][1] != 0 || regs[1][0] != 1 || regs[1][1] != 1 {
		t.Errorf("parsed %v", regs)
	}
	if _, ok := parseStateKey(test, "garbage"); ok {
		t.Error("garbage key parsed")
	}
	if _, ok := parseStateKey(test, "1,2,3,|4,|"); ok {
		t.Error("wrong-arity key parsed")
	}
}

func TestObservationVerdicts(t *testing.T) {
	if observation(0, 10) != "Never" {
		t.Error("Never wrong")
	}
	if observation(10, 0) != "Always" {
		t.Error("Always wrong")
	}
	if observation(5, 5) != "Sometimes" {
		t.Error("Sometimes wrong")
	}
}
