package cache

import "testing"

// Hierarchy-level timing tests: the latency ladder of Table II must be
// visible end-to-end through a private L1D+L2 over a shared L3 and DRAM.

func tableIIStack() (*Hierarchy, *Cache, *DRAM) {
	dram := NewDRAM()
	llc := New(Config{Name: "L3", Bytes: 2 << 20, Ways: 16, Latency: 20}, dram)
	return NewHierarchy(DefaultHierarchyConfig(), llc, 0), llc, dram
}

func TestLatencyLadder(t *testing.T) {
	h, _, _ := tableIIStack()
	const addr = 0x4_0000

	// Cold: L1(2) + L2(10) + L3(20) + DRAM(200) = 232.
	done, hit := h.Load(addr, 0, nil)
	if hit {
		t.Fatal("cold load hit")
	}
	if done != 232 {
		t.Errorf("cold load completes at %d, want 232", done)
	}

	// Warm L1: 2 cycles.
	done, hit = h.Load(addr, 1000, nil)
	if !hit || done != 1002 {
		t.Errorf("L1 hit = %v, completes at %d, want 1002", hit, done)
	}

	// Evict from L1 only (fill conflicting blocks into its set), then the
	// block should come from L2 at 2+10.
	sets := h.L1D.Sets()
	for i := 1; i <= h.L1D.Ways(); i++ {
		h.Load(addr+uint64(i*sets*64), 2000+uint64(i), nil)
	}
	if h.InL1(addr) {
		t.Fatal("victim block still in L1")
	}
	done, hit = h.Load(addr, 3000, nil)
	if hit {
		t.Error("post-evict load reported as L1 hit")
	}
	if done != 3012 {
		t.Errorf("L2 hit completes at %d, want 3012", done)
	}
}

func TestStoreWriteAllocate(t *testing.T) {
	h, _, dram := tableIIStack()
	h.Store(0x8000, 0)
	if !h.InL1(0x8000) {
		t.Error("store did not allocate in L1")
	}
	if dram.DemandFills != 1 {
		t.Errorf("store miss fills = %d, want 1", dram.DemandFills)
	}
	// A subsequent load hits the dirty block.
	if _, hit := h.Load(0x8000, 100, nil); !hit {
		t.Error("load after store missed")
	}
}

func TestPrefetchFillsWholeLadder(t *testing.T) {
	h, llc, _ := tableIIStack()
	h.Prefetch(0xC000, 0x1000, 0)
	if !h.InL1(0xC000) {
		t.Error("prefetch not installed in L1")
	}
	if !h.L2.Contains(h.extend(0xC000)) || !llc.Contains(h.extend(0xC000)) {
		t.Error("prefetch fill did not populate lower levels")
	}
	// Demand load merges with the in-flight prefetch rather than
	// re-walking the hierarchy.
	done, hit := h.Load(0xC000, 10, nil)
	if !hit {
		t.Error("demand on prefetched block missed")
	}
	if done != 232 { // the prefetch's fill time dominates
		t.Errorf("merged completion %d, want 232", done)
	}
	// Well after the fill, it's a plain 2-cycle hit.
	if done, _ := h.Load(0xC000, 5000, nil); done != 5002 {
		t.Errorf("late hit completes at %d", done)
	}
}

func TestSharedLLCConflict(t *testing.T) {
	// Two cores thrash one LLC set through private hierarchies; the shared
	// cache must keep both ASIDs' blocks distinct while evicting by LRU.
	dram := NewDRAM()
	llc := New(Config{Name: "L3", Bytes: 1 << 20, Ways: 2, Latency: 20}, dram)
	h0 := NewHierarchy(DefaultHierarchyConfig(), llc, 0)
	h1 := NewHierarchy(DefaultHierarchyConfig(), llc, 1)
	h0.Load(0x10000, 0, nil)
	h1.Load(0x10000, 1, nil)
	before := dram.DemandFills
	if before != 2 {
		t.Fatalf("fills = %d, want 2 (no cross-ASID sharing)", before)
	}
	// Same ASID re-access: no new fill.
	h0.Load(0x10000, 10, nil)
	if dram.DemandFills != before {
		t.Error("re-access refilled from DRAM")
	}
}
