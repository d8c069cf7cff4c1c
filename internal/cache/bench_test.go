package cache

import "testing"

// BenchmarkCacheAccess measures a demand load walking the full private
// hierarchy over a 1 MB working set: mostly L1 hits with a steady diet of
// L2/LLC refills, the mix the simulator sees on memory-heavy workloads.
func BenchmarkCacheAccess(b *testing.B) {
	dram := NewDRAM()
	llc := New(Config{Name: "L3", Bytes: 2 << 20, Ways: 16, Latency: 20}, dram)
	hier := NewHierarchy(DefaultHierarchyConfig(), llc, 0)

	const mask = 1<<20 - 1
	var addr, now uint64
	for i := 0; i < 1<<14; i++ { // warm the stack
		hier.Load(addr&mask, now, nil)
		addr += 64
		now++
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hier.Load(addr&mask, now, nil)
		addr += 64
		now++
	}
}
