// Package ndgood is a positive fixture for the nodeterminism pass: the
// idioms below are all deterministic (or carry reasoned suppressions)
// and must produce zero findings.
package ndgood

import (
	"math/rand"
	"sort"
	"time"
)

// Seeded owns its generator; methods on a seeded *rand.Rand are always
// fine, and the constructors are exempt from the global-source rule.
func Seeded(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(6)
}

// Ticks manipulates time values without reading the clock.
func Ticks(d time.Duration) time.Time {
	return time.Unix(0, 0).Add(d)
}

// SortedDump emits map entries in sorted key order.
func SortedDump(m map[string]int, emit func(string, int)) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		emit(k, m[k])
	}
}

// Telemetry reads the wall clock under the unified suppression syntax.
func Telemetry() int64 {
	return time.Now().UnixNano() //perple:allow nodeterminism operator telemetry; never feeds results
}

// PrevLineTelemetry carries its suppression on the line above the
// finding, which silences it just as a same-line allow does.
func PrevLineTelemetry() int64 {
	//perple:allow nodeterminism wall-clock telemetry; never feeds results
	return time.Now().UnixNano()
}
