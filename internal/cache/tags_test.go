package cache

import "testing"

// The tag array is the only record of which block a way holds: these tests
// pin its edge cases — block address 0 (whose tag word is just the valid
// bit), eviction, invalidation, reuse of a way, and the addresses reported
// for a displaced block.

// feedbackLog records prefetch feedback as (load PC, block address) pairs.
type feedbackLog struct{ useful, useless [][2]uint64 }

func (f *feedbackLog) PrefetchUseful(pc, ba uint64) {
	f.useful = append(f.useful, [2]uint64{pc, ba})
}

func (f *feedbackLog) PrefetchUseless(pc, ba uint64) {
	f.useless = append(f.useless, [2]uint64{pc, ba})
}

func TestBlockZeroAtASIDZero(t *testing.T) {
	dram := NewDRAM()
	llc := New(Config{Name: "L3", Bytes: 1 << 20, Ways: 16, Latency: 20}, dram)
	h := NewHierarchy(DefaultHierarchyConfig(), llc, 0)
	if h.InL1(0) {
		t.Fatal("empty cache claims block 0")
	}
	h.Load(0, 0, nil)
	if !h.InL1(0) || !h.L2.Contains(0) || !llc.Contains(0) {
		t.Fatalf("block 0 not found after install: L1D %v, L2 %v, LLC %v",
			h.InL1(0), h.L2.Contains(0), llc.Contains(0))
	}
	misses := h.L1D.Stats.Misses
	if _, hit := h.Load(8, 1000, nil); !hit || h.L1D.Stats.Misses != misses {
		t.Error("second load to block 0 missed")
	}
}

func TestBlockZeroGoneAfterEviction(t *testing.T) {
	c := smallCache(t, &fixedLevel{latency: 10})
	// Blocks 0, 4 and 8 share set 0 of the 2-way cache.
	c.Access(Request{BlockAddr: 0}, 0)
	c.Access(Request{BlockAddr: 4}, 1)
	c.Access(Request{BlockAddr: 8}, 2) // evicts 0, the LRU way
	if c.Contains(0) {
		t.Fatal("evicted block 0 still found")
	}
	if !c.Contains(4) || !c.Contains(8) {
		t.Fatal("resident blocks lost")
	}
	misses := c.Stats.Misses
	c.Access(Request{BlockAddr: 0}, 100)
	if c.Stats.Misses != misses+1 {
		t.Error("access to evicted block 0 hit")
	}
}

func TestBlockZeroGoneAfterInvalidate(t *testing.T) {
	c := smallCache(t, &fixedLevel{latency: 10})
	c.Access(Request{BlockAddr: 0}, 0)
	c.Access(Request{BlockAddr: 4}, 1)
	c.Invalidate(0)
	if c.Contains(0) {
		t.Fatal("invalidated block 0 still found")
	}
	if !c.Contains(4) {
		t.Fatal("invalidating block 0 dropped block 4")
	}
	c.Invalidate(0) // absent: no-op
	misses, evictions := c.Stats.Misses, c.Stats.Evictions
	c.Access(Request{BlockAddr: 8}, 2) // refills the emptied way: no eviction
	if c.Stats.Misses != misses+1 || c.Stats.Evictions != evictions {
		t.Errorf("refill into the invalidated way: misses +%d, evictions +%d; want +1, +0",
			c.Stats.Misses-misses, c.Stats.Evictions-evictions)
	}
	if !c.Contains(4) || !c.Contains(8) {
		t.Error("set does not hold blocks 4 and 8")
	}
}

func TestReplacedWayOldTagMisses(t *testing.T) {
	c := smallCache(t, &fixedLevel{latency: 10})
	c.Access(Request{BlockAddr: 4}, 0)
	c.Access(Request{BlockAddr: 12}, 1)
	c.Access(Request{BlockAddr: 4}, 2)  // 12 is now LRU
	c.Access(Request{BlockAddr: 20}, 3) // takes 12's way
	if c.Contains(12) {
		t.Fatal("replaced block 12 still found")
	}
	hits := c.Stats.Hits
	c.Access(Request{BlockAddr: 12}, 100)
	if c.Stats.Hits != hits {
		t.Error("the replaced way's old tag hit")
	}
	// The refill of 12 took 4's way (LRU after the 20 install); 20 stays.
	if c.Contains(4) || !c.Contains(20) || !c.Contains(12) {
		t.Errorf("set holds 4:%v 12:%v 20:%v, want 12 and 20",
			c.Contains(4), c.Contains(12), c.Contains(20))
	}
}

func TestEvictionReportsBlockAddress(t *testing.T) {
	c := smallCache(t, &fixedLevel{latency: 10})
	fb := &feedbackLog{}
	c.SetFeedback(fb)
	c.Access(Request{BlockAddr: 0, Kind: PrefetchFill, LoadPC: 0x100}, 0)
	c.Access(Request{BlockAddr: 4, Kind: PrefetchFill, LoadPC: 0x104}, 1)
	c.Access(Request{BlockAddr: 4}, 2) // useful
	c.Access(Request{BlockAddr: 8}, 3) // evicts prefetched 0 untouched
	if len(fb.useful) != 1 || fb.useful[0] != [2]uint64{0x104, 4} {
		t.Errorf("useful feedback = %v, want [[0x104 4]]", fb.useful)
	}
	if len(fb.useless) != 1 || fb.useless[0] != [2]uint64{0x100, 0} {
		t.Errorf("useless feedback = %v, want [[0x100 0]]", fb.useless)
	}
}

func TestPendingPrefetchedCountsResidentWays(t *testing.T) {
	c := smallCache(t, &fixedLevel{latency: 10})
	c.Access(Request{BlockAddr: 0, Kind: PrefetchFill, LoadPC: 0x100}, 0)
	c.Access(Request{BlockAddr: 4, Kind: PrefetchFill, LoadPC: 0x104}, 1)
	c.Access(Request{BlockAddr: 1, Kind: PrefetchFill, LoadPC: 0x108}, 2)
	if n := c.PendingPrefetched(); n != 3 {
		t.Fatalf("PendingPrefetched = %d, want 3", n)
	}
	c.Access(Request{BlockAddr: 8}, 3) // evicts prefetched 0
	if n := c.PendingPrefetched(); n != 2 {
		t.Errorf("after eviction: PendingPrefetched = %d, want 2", n)
	}
	c.Invalidate(4)
	if n := c.PendingPrefetched(); n != 1 {
		t.Errorf("after invalidation: PendingPrefetched = %d, want 1", n)
	}
	c.Access(Request{BlockAddr: 2}, 4) // a demand fill is not prefetched
	if n := c.PendingPrefetched(); n != 1 {
		t.Errorf("after a demand fill: PendingPrefetched = %d, want 1", n)
	}
	c.Access(Request{BlockAddr: 1}, 5) // first demand touch of prefetched 1
	if n := c.PendingPrefetched(); n != 0 {
		t.Errorf("after a demand touch: PendingPrefetched = %d, want 0", n)
	}
}
