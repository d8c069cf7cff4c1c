//go:build linux || darwin

package workload

import (
	"runtime"
	"runtime/metrics"
	"testing"
)

// TestBuiltImagesOffHeap pins that the 18 kernel images, built once and
// kept until exit, live outside the Go heap: after building every kernel
// and collecting, the live heap is a small fraction of the roughly 60 MiB
// the images hold, so the collector neither scans them nor sizes its goal
// (and the process's peak) by them.
func TestBuiltImagesOffHeap(t *testing.T) {
	for _, w := range All() {
		w.built()
	}
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	const limit = 8 << 20
	live := s[0].Value.Uint64()
	t.Logf("live heap %.1f MiB", float64(live)/(1<<20))
	if live >= limit {
		t.Errorf("live heap after building all kernels = %.1f MiB, want under %d MiB",
			float64(live)/(1<<20), limit>>20)
	}
}
