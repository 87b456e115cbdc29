package main

import (
	"fmt"
	"math"
	"sort"
)

// summary is the distribution of one metric's samples within a run or
// across the runs of a set: median, first and third quartile, count.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize computes the median and quartiles of xs with the same
// "exclusive" interpolation as Python's statistics.quantiles(xs, n=4),
// so the spreads this program reports match the ones an external check
// computes from the same values. One sample is its own median and
// quartiles; no samples give the zero summary.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return summary{}
	case 1:
		return summary{Median: s[0], Q1: s[0], Q3: s[0], N: 1}
	}
	q := func(i int) float64 {
		// Python's loop body: j is clamped to [1, n-1] before delta is
		// taken, so tiny samples extrapolate exactly as Python does.
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return summary{Median: med, Q1: q(1), Q3: q(3), N: n}
}

// spread is the interquartile range as a share of the median's
// magnitude; 0 for a zero median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// Verdicts of compareMetric.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictSame       = "same"
	verdictUnresolved = "unresolved"
)

// compareMetric judges a new set of run values against a base set for
// one metric. A change is better or worse only when the medians differ
// by more than bound (a share of the base median) and the new median
// lies outside the base's interquartile range. When either set's own
// spread exceeds the bound, the difference cannot be told from noise
// and the verdict is unresolved — unless every new run beats every base
// run. lowerBetter orients the comparison.
func compareMetric(base, cur []float64, bound float64, lowerBetter bool) (verdict string, delta float64) {
	b, c := summarize(base), summarize(cur)
	if b.N == 0 || c.N == 0 || b.Median == 0 {
		return verdictUnresolved, 0
	}
	delta = (c.Median - b.Median) / math.Abs(b.Median)
	gain := -delta // positive = better
	if !lowerBetter {
		gain = delta
	}
	if b.spread() > bound || c.spread() > bound {
		if dominates(base, cur, lowerBetter) {
			return verdictBetter, delta
		}
		return verdictUnresolved, delta
	}
	outsideIQR := c.Median < b.Q1 || c.Median > b.Q3
	switch {
	case gain < -bound && outsideIQR:
		return verdictWorse, delta
	case gain > bound && outsideIQR:
		return verdictBetter, delta
	}
	return verdictSame, delta
}

// dominates reports whether every value of cur is better than every
// value of base.
func dominates(base, cur []float64, lowerBetter bool) bool {
	for _, x := range cur {
		for _, y := range base {
			if lowerBetter && x >= y || !lowerBetter && x <= y {
				return false
			}
		}
	}
	return true
}

// formatValue prints a metric value with enough digits to keep every
// measured digit that matters at its scale.
func formatValue(v float64) string {
	return fmt.Sprintf("%.6g", v)
}
