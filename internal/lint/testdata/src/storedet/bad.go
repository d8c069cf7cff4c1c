// Package storedet holds known-bad fixtures shaped like the durable store:
// unannotated wall-clock reads around disk I/O and directory scans that
// publish map iteration order. Type-checked by the golden tests, never built.
package storedet

import (
	"fmt"
	"time"
)

// badReadTiming times a disk read without the //bfetch:wallclock marker
// saying the measurement only feeds latency stats.
func badReadTiming(read func() []byte) ([]byte, time.Duration) {
	start := time.Now() // want "time.Now reads the wall clock"
	data := read()
	return data, time.Since(start) // want "time.Since reads the wall clock"
}

// badScanEntries collects cache entries from an in-memory index in map
// order — a warm-store listing whose order would differ run to run.
func badScanEntries(index map[string][]byte) []string {
	var keys []string
	for k := range index {
		keys = append(keys, k) // want "inside a map range publishes iteration order"
	}
	return keys
}

// badReportMetrics prints per-kind store metrics in map order.
func badReportMetrics(byKind map[string]uint64) {
	for kind, n := range byKind {
		fmt.Printf("%s: %d entries\n", kind, n) // want "fmt.Printf inside a map range emits output in iteration order"
	}
}
