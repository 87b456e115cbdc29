package campaign

import (
	"testing"
)

// allocSink keeps the test's allocation from being optimized away.
var allocSink []byte

// TestSnapshotAllocBytes checks the allocation gauges against a known
// allocation: alloc_bytes is a TotalAlloc delta since Start, so it
// covers a 1 MiB buffer allocated after Start, the per-iteration rates
// divide by the completed iterations, and Merge sums both counts.
func TestSnapshotAllocBytes(t *testing.T) {
	m := &Metrics{}
	m.Start()
	allocSink = make([]byte, 1<<20)
	m.Iterations.Add(1000)
	s := m.Snapshot()
	if s.Allocs < 1 || s.AllocBytes < 1<<20 {
		t.Fatalf("snapshot after a 1 MiB allocation: allocs %d, alloc_bytes %d", s.Allocs, s.AllocBytes)
	}
	if want := float64(s.AllocBytes) / 1000; s.AllocBytesPerIter != want {
		t.Fatalf("alloc_bytes_per_iter = %g, want %g", s.AllocBytesPerIter, want)
	}
	if want := float64(s.Allocs) / 1000; s.AllocsPerIter != want {
		t.Fatalf("allocs_per_iter = %g, want %g", s.AllocsPerIter, want)
	}

	var agg Snapshot
	agg.Merge(s)
	agg.Merge(s)
	if agg.AllocBytes != 2*s.AllocBytes || agg.Allocs != 2*s.Allocs || agg.AllocBytesPerIter != s.AllocBytesPerIter {
		t.Fatalf("merged %+v from two copies of %+v", agg, s)
	}
	if (&Metrics{}).Snapshot().AllocBytes != 0 {
		t.Fatal("an unstarted Metrics reports allocation")
	}
}
