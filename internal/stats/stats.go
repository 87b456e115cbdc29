// Package stats provides the statistics and reporting utilities the
// evaluation uses: geometric means over speedup ratios, detection rates,
// histograms with probability-density normalization for the thread-skew
// figure, and plain-text table rendering for the experiment drivers.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// GeoMean returns the geometric mean of strictly positive values; it
// returns 0 for an empty slice and panics on non-positive entries (a
// speedup ratio of zero indicates a bug upstream).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: GeoMean of non-positive value %g", x))
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using
// nearest-rank on a copy of the data; 0 for empty input.
func Percentile(xs []int64, p float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]int64(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Rate is occurrences per unit time; it guards against zero durations.
func Rate(count int64, ticks int64) float64 {
	if ticks <= 0 {
		return 0
	}
	return float64(count) / float64(ticks)
}

// Histogram is a fixed-width binned histogram over int64 samples.
type Histogram struct {
	Min, Max  int64
	BinWidth  int64
	Counts    []int64
	Total     int64
	Underflow int64
	Overflow  int64
}

// NewHistogram builds a histogram with the given inclusive range and bin
// width (the last bin may be short).
func NewHistogram(min, max, binWidth int64) (*Histogram, error) {
	if binWidth <= 0 {
		return nil, fmt.Errorf("stats: bin width must be positive, got %d", binWidth)
	}
	if max < min {
		return nil, fmt.Errorf("stats: histogram range [%d,%d] is empty", min, max)
	}
	// The range is inclusive on both ends, so the bin holding max always
	// exists (it may be short).
	bins := (max-min)/binWidth + 1
	return &Histogram{Min: min, Max: max, BinWidth: binWidth, Counts: make([]int64, bins)}, nil
}

// Add records one sample.
func (h *Histogram) Add(v int64) {
	h.Total++
	switch {
	case v < h.Min:
		h.Underflow++
	case v > h.Max:
		h.Overflow++
	default:
		h.Counts[(v-h.Min)/h.BinWidth]++
	}
}

// AddAll records every sample.
func (h *Histogram) AddAll(vs []int64) {
	for _, v := range vs {
		h.Add(v)
	}
}

// PDF returns the probability density of each bin: count / (total ×
// binWidth), so the densities integrate to the in-range fraction.
func (h *Histogram) PDF() []float64 {
	out := make([]float64, len(h.Counts))
	if h.Total == 0 {
		return out
	}
	denom := float64(h.Total) * float64(h.BinWidth)
	for i, c := range h.Counts {
		out[i] = float64(c) / denom
	}
	return out
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	lo := h.Min + int64(i)*h.BinWidth
	hi := lo + h.BinWidth - 1
	if hi > h.Max {
		hi = h.Max
	}
	return (float64(lo) + float64(hi)) / 2
}

// Render draws the histogram as ASCII rows of at most width columns,
// skipping empty leading/trailing bins.
func (h *Histogram) Render(width int) string {
	if width <= 0 {
		width = 50
	}
	first, last := -1, -1
	var maxCount int64
	for i, c := range h.Counts {
		if c > 0 {
			if first < 0 {
				first = i
			}
			last = i
			if c > maxCount {
				maxCount = c
			}
		}
	}
	if first < 0 {
		return "(empty histogram)\n"
	}
	out := ""
	for i := first; i <= last; i++ {
		bar := 0
		if maxCount > 0 {
			bar = int(h.Counts[i] * int64(width) / maxCount)
		}
		out += fmt.Sprintf("%10.0f | %-*s %d\n", h.BinCenter(i), width, repeat('#', bar), h.Counts[i])
	}
	return out
}

func repeat(ch byte, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = ch
	}
	return string(b)
}
