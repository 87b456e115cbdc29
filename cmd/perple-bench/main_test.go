package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestCheckBaselineBytes pins the B/op gate: a multiple above 1.5x of a
// baseline of at least 1 KB fails when both ran the same op count, and
// is ignored below the floor or at a different op count.
func TestCheckBaselineBytes(t *testing.T) {
	f := func(v float64) *float64 { return &v }
	base := Summary{Benchmarks: map[string]Entry{
		"BenchmarkBig":   {N: 5, NsPerOp: 1000, BytesPerOp: f(10000)},
		"BenchmarkSmall": {N: 5, NsPerOp: 1000, BytesPerOp: f(500)},
	}}
	data, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		e    Entry
		key  string
		ok   bool
	}{
		{"within", Entry{N: 5, NsPerOp: 1000, BytesPerOp: f(14000)}, "BenchmarkBig", true},
		{"over", Entry{N: 5, NsPerOp: 1000, BytesPerOp: f(16000)}, "BenchmarkBig", false},
		{"below floor", Entry{N: 5, NsPerOp: 1000, BytesPerOp: f(5000)}, "BenchmarkSmall", true},
		{"other op count", Entry{N: 1, NsPerOp: 1000, BytesPerOp: f(50000)}, "BenchmarkBig", true},
		{"no -benchmem", Entry{N: 5, NsPerOp: 1000}, "BenchmarkBig", true},
		{"ns/op still gated", Entry{N: 1, NsPerOp: 4000, BytesPerOp: f(10000)}, "BenchmarkBig", false},
	} {
		if got := checkBaseline(path, map[string]Entry{tc.key: tc.e}, 3); got != tc.ok {
			t.Errorf("%s: checkBaseline = %v, want %v", tc.name, got, tc.ok)
		}
	}
}

// TestCheckBaselineCounts pins the count gate: a custom metric whose
// unit ends in /op fails past -maxratio of its baseline, whatever the
// op count, while other custom units and counts the baseline lacks are
// not compared.
func TestCheckBaselineCounts(t *testing.T) {
	base := Summary{Benchmarks: map[string]Entry{
		"BenchmarkFleet": {N: 5, NsPerOp: 1000, Metrics: map[string]float64{"uploads/op": 4, "proto_us/shard": 10}},
	}}
	data, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		metrics map[string]float64
		ok      bool
	}{
		{"within", map[string]float64{"uploads/op": 12}, true},
		{"over", map[string]float64{"uploads/op": 24}, false},
		{"not a count", map[string]float64{"proto_us/shard": 100}, true},
		{"no baseline count", map[string]float64{"polls/op": 100}, true},
	} {
		e := Entry{N: 1, NsPerOp: 1000, Metrics: tc.metrics}
		if got := checkBaseline(path, map[string]Entry{"BenchmarkFleet": e}, 3); got != tc.ok {
			t.Errorf("%s: checkBaseline = %v, want %v", tc.name, got, tc.ok)
		}
	}
}
