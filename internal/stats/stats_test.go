package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestGeoMean(t *testing.T) {
	if got := GeoMean(nil); got != 0 {
		t.Errorf("GeoMean(nil) = %g", got)
	}
	if got := GeoMean([]float64{4}); math.Abs(got-4) > 1e-12 {
		t.Errorf("GeoMean([4]) = %g", got)
	}
	if got := GeoMean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Errorf("GeoMean([1,4]) = %g, want 2", got)
	}
	if got := GeoMean([]float64{2, 2, 2}); math.Abs(got-2) > 1e-12 {
		t.Errorf("GeoMean([2,2,2]) = %g", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("GeoMean accepted non-positive value")
		}
	}()
	GeoMean([]float64{1, 0})
}

func TestGeoMeanBetweenMinMax(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		min, max := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			xs[i] = float64(r)/100 + 0.01
			min = math.Min(min, xs[i])
			max = math.Max(max, xs[i])
		}
		g := GeoMean(xs)
		return g >= min-1e-9 && g <= max+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMeanAndRate(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %g", got)
	}
	if got := Mean([]float64{1, 2, 3}); math.Abs(got-2) > 1e-12 {
		t.Errorf("Mean = %g", got)
	}
	if got := Rate(10, 5); got != 2 {
		t.Errorf("Rate = %g", got)
	}
	if got := Rate(10, 0); got != 0 {
		t.Errorf("Rate with zero time = %g", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []int64{5, 1, 3, 2, 4}
	if got := Percentile(xs, 50); got != 3 {
		t.Errorf("P50 = %d, want 3", got)
	}
	if got := Percentile(xs, 100); got != 5 {
		t.Errorf("P100 = %d", got)
	}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("P0 = %d", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("P50 of empty = %d", got)
	}
	// The input must not be mutated.
	if xs[0] != 5 {
		t.Error("Percentile sorted its input in place")
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram(-10, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	h.AddAll([]int64{-10, -6, 0, 3, 10, -11, 11})
	if h.Underflow != 1 || h.Overflow != 1 {
		t.Errorf("under=%d over=%d, want 1 1", h.Underflow, h.Overflow)
	}
	if h.Total != 7 {
		t.Errorf("total = %d", h.Total)
	}
	// Bins: [-10,-6], [-5,-1], [0,4], [5,9], [10,10].
	want := []int64{2, 0, 2, 0, 1}
	for i, w := range want {
		if h.Counts[i] != w {
			t.Errorf("bin %d = %d, want %d (counts %v)", i, h.Counts[i], w, h.Counts)
		}
	}
	if got := h.BinCenter(0); got != -8 {
		t.Errorf("bin 0 center = %g, want -8", got)
	}
	out := h.Render(20)
	if !strings.Contains(out, "#") {
		t.Errorf("render has no bars:\n%s", out)
	}
}

func TestHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(0, 10, 0); err == nil {
		t.Error("zero bin width accepted")
	}
	if _, err := NewHistogram(5, 4, 1); err == nil {
		t.Error("empty range accepted")
	}
}

func TestHistogramEmptyRender(t *testing.T) {
	h, err := NewHistogram(0, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Render(10); got != "(empty histogram)\n" {
		t.Errorf("empty render = %q", got)
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("test", "count", "rate")
	tb.AddRow("sb", 42, 3.14159)
	tb.AddRow("mp", 0, 123456.0)
	out := tb.String()
	if !strings.Contains(out, "test") || !strings.Contains(out, "sb") {
		t.Errorf("table missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Errorf("table has %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "3.14") {
		t.Errorf("float formatting missing:\n%s", out)
	}
	if !strings.Contains(out, "1.23e+05") {
		t.Errorf("large float formatting missing:\n%s", out)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		2.5:     "2.50",
		0.125:   "0.125",
		150:     "150",
		1234567: "1.23e+06",
	}
	for v, want := range cases {
		if got := FormatFloat(v); got != want {
			t.Errorf("FormatFloat(%g) = %q, want %q", v, got, want)
		}
	}
}
