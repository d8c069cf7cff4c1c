package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// fixedLevel is a backing store with constant latency, for unit tests.
type fixedLevel struct {
	latency  uint64
	accesses uint64
}

func (f *fixedLevel) Access(req Request, now uint64) uint64 {
	f.accesses++
	return now + f.latency
}

func smallCache(t *testing.T, next Level) *Cache {
	t.Helper()
	// 4 sets × 2 ways × 64 B = 512 B.
	return New(Config{Name: "T", Bytes: 512, Ways: 2, Latency: 2}, next)
}

func TestHitMiss(t *testing.T) {
	back := &fixedLevel{latency: 100}
	c := smallCache(t, back)
	d1 := c.Access(Request{BlockAddr: 1}, 0)
	if d1 != 102 {
		t.Errorf("miss completion = %d, want 102", d1)
	}
	d2 := c.Access(Request{BlockAddr: 1}, 200)
	if d2 != 202 {
		t.Errorf("hit completion = %d, want 202", d2)
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

func TestInFlightMerge(t *testing.T) {
	back := &fixedLevel{latency: 100}
	c := smallCache(t, back)
	c.Access(Request{BlockAddr: 1}, 0) // fills at 102
	d := c.Access(Request{BlockAddr: 1}, 10)
	if d != 102 {
		t.Errorf("merged access completes at %d, want 102 (the in-flight fill)", d)
	}
	if c.Stats.MergedInFlight != 1 {
		t.Errorf("merge not counted: %+v", c.Stats)
	}
	if back.accesses != 1 {
		t.Errorf("backing accesses = %d, want 1 (merged)", back.accesses)
	}
}

func TestLRUWithinSet(t *testing.T) {
	// Blocks 0, 4, 8 map to set 0 (4 sets); 2 ways. Each case fills the set
	// with its accesses, then installs 8 at cycle 10, which must evict the
	// way with the oldest lastUse, the lowest-indexed one on a tie.
	type access struct{ addr, now uint64 }
	for _, tc := range []struct {
		name     string
		accesses []access
		evicted  uint64
	}{
		{"least recently used", []access{{0, 0}, {4, 1}, {0, 2}}, 4},
		{"tie evicts way 0", []access{{0, 5}, {4, 5}}, 0},
		{"tie evicts way 0, not the lower address", []access{{4, 5}, {0, 5}}, 4},
	} {
		c := smallCache(t, &fixedLevel{latency: 10})
		for _, a := range tc.accesses {
			c.Access(Request{BlockAddr: a.addr}, a.now)
		}
		c.Access(Request{BlockAddr: 8}, 10)
		for _, ba := range []uint64{0, 4, 8} {
			if want := ba != tc.evicted; c.Contains(ba) != want {
				t.Errorf("%s: Contains(%d) = %v, want %v", tc.name, ba, !want, want)
			}
		}
	}
}

func TestWritebackOnDirtyEvict(t *testing.T) {
	back := &fixedLevel{latency: 10}
	c := smallCache(t, back)
	c.Access(Request{BlockAddr: 0, Kind: Write}, 0)
	c.Access(Request{BlockAddr: 4}, 1)
	c.Access(Request{BlockAddr: 8}, 2) // evicts dirty block 0
	// backing saw: fill 0, fill 4, fill 8, writeback 0 = 4 accesses.
	if back.accesses != 4 {
		t.Errorf("backing accesses = %d, want 4 (3 fills + 1 writeback)", back.accesses)
	}
}

func TestWritebackIntoNextCache(t *testing.T) {
	back := &fixedLevel{latency: 10}
	l2 := New(Config{Name: "L2", Bytes: 1024, Ways: 2, Latency: 5}, back)
	l1 := smallCache(t, l2)
	l1.Access(Request{BlockAddr: 0, Kind: Write}, 0)
	l1.Access(Request{BlockAddr: 4}, 1)
	l1.Access(Request{BlockAddr: 8}, 2) // dirty 0 written back into L2
	if !l2.Contains(0) {
		t.Error("writeback victim not present in L2")
	}
}

func TestPrefetchUsefulUseless(t *testing.T) {
	// The counts do not depend on a feedback handler: an L2 has none, yet
	// prefetch fills pass through it on their way to the L1D.
	for _, withFeedback := range []bool{true, false} {
		var fb recorder
		c := smallCache(t, &fixedLevel{latency: 10})
		if withFeedback {
			c.SetFeedback(&fb)
		}

		c.Access(Request{BlockAddr: 1, Kind: PrefetchFill, LoadPC: 0xA0}, 0)
		c.Access(Request{BlockAddr: 1, Kind: Read}, 5) // demand touch → useful
		if c.Stats.PrefetchUseful != 1 {
			t.Errorf("feedback %v: useful = %d", withFeedback, c.Stats.PrefetchUseful)
		}
		// A second demand touch must not double-count.
		c.Access(Request{BlockAddr: 1, Kind: Read}, 6)
		if c.Stats.PrefetchUseful != 1 {
			t.Errorf("feedback %v: useful double-counted", withFeedback)
		}

		// Prefetch into set 1 then evict untouched.
		c.Access(Request{BlockAddr: 5, Kind: PrefetchFill, LoadPC: 0xB0}, 10)
		c.Access(Request{BlockAddr: 9, Kind: Read}, 11)
		c.Access(Request{BlockAddr: 13, Kind: Read}, 12) // set 1 full; next evicts
		c.Access(Request{BlockAddr: 17, Kind: Read}, 13)
		if c.Stats.PrefetchUseless != 1 {
			t.Errorf("feedback %v: useless = %d (stats %+v)", withFeedback, c.Stats.PrefetchUseless, c.Stats)
		}

		if !withFeedback {
			continue
		}
		if len(fb.useful) != 1 || fb.useful[0] != 0xA0 {
			t.Errorf("useful feedback = %v", fb.useful)
		}
		if len(fb.useless) != 1 || fb.useless[0] != 0xB0 {
			t.Errorf("useless feedback = %v", fb.useless)
		}
	}
}

type recorder struct {
	useful  []uint64
	useless []uint64
}

func (r *recorder) PrefetchUseful(loadPC uint64, _ uint64)  { r.useful = append(r.useful, loadPC) }
func (r *recorder) PrefetchUseless(loadPC uint64, _ uint64) { r.useless = append(r.useless, loadPC) }

func TestPerfectMode(t *testing.T) {
	back := &fixedLevel{latency: 1000}
	c := smallCache(t, back)
	c.Perfect = true
	if d := c.Access(Request{BlockAddr: 77}, 0); d != 2 {
		t.Errorf("perfect read completion = %d, want 2", d)
	}
	if back.accesses != 0 {
		t.Error("perfect mode should not touch backing store for reads")
	}
}

func TestDRAMBandwidthGate(t *testing.T) {
	d := NewDRAM()
	a := d.Access(Request{BlockAddr: 1}, 0)
	b := d.Access(Request{BlockAddr: 2}, 0)
	if a != 200 {
		t.Errorf("first fill = %d", a)
	}
	if b != 216 {
		t.Errorf("second fill = %d, want 216 (queued behind channel)", b)
	}
	if d.StallCycles != 16 {
		t.Errorf("stall cycles = %d", d.StallCycles)
	}
	// After the channel drains, no queueing.
	c := d.Access(Request{BlockAddr: 3}, 1000)
	if c != 1200 {
		t.Errorf("drained fill = %d", c)
	}
	if d.Transfers() != 3 {
		t.Errorf("transfers = %d", d.Transfers())
	}
}

func TestDRAMWritebackPosted(t *testing.T) {
	d := NewDRAM()
	done := d.Access(Request{BlockAddr: 1, Kind: Write}, 0)
	if done != 0 {
		t.Errorf("posted writeback completion = %d, want 0", done)
	}
	if d.Writebacks != 1 {
		t.Errorf("writebacks = %d", d.Writebacks)
	}
	// But it still occupies the channel.
	fill := d.Access(Request{BlockAddr: 2}, 0)
	if fill != 216 {
		t.Errorf("fill after writeback = %d, want 216", fill)
	}
}

func TestHierarchyASIDIsolation(t *testing.T) {
	dram := NewDRAM()
	llc := New(Config{Name: "L3", Bytes: 1 << 20, Ways: 16, Latency: 20}, dram)
	h0 := NewHierarchy(DefaultHierarchyConfig(), llc, 0)
	h1 := NewHierarchy(DefaultHierarchyConfig(), llc, 1)
	h0.Load(0x1000, 0, nil)
	if h1.InL1(0x1000) {
		t.Error("cross-ASID aliasing in private caches")
	}
	// Same address, different ASIDs, must occupy distinct LLC blocks.
	h1.Load(0x1000, 100, nil)
	if llc.Stats.Misses != 2 {
		t.Errorf("LLC misses = %d, want 2 (no cross-ASID sharing)", llc.Stats.Misses)
	}
}

func TestHierarchyPrefetchDedup(t *testing.T) {
	dram := NewDRAM()
	llc := New(Config{Name: "L3", Bytes: 1 << 20, Ways: 16, Latency: 20}, dram)
	h := NewHierarchy(DefaultHierarchyConfig(), llc, 0)
	if !h.Prefetch(0x2000, 0x400, 0) {
		t.Error("first prefetch dropped")
	}
	if h.Prefetch(0x2000, 0x400, 1) {
		t.Error("redundant prefetch not dropped")
	}
	if h.Prefetch(0x2010, 0x400, 2) {
		t.Error("prefetch to same block via different byte address not dropped")
	}
	if !h.InL1(0x2000) {
		t.Error("prefetched block not resident")
	}
	// A demand load to the prefetched block is a hit and marks it useful.
	h.Load(0x2008, 10, nil)
	if h.L1D.Stats.PrefetchUseful != 1 {
		t.Errorf("useful = %d", h.L1D.Stats.PrefetchUseful)
	}
}

// Property: cache contents always match a reference model of set-associative
// LRU under random demand traffic (no prefetches, no in-flight subtleties —
// pure placement/replacement equivalence).
func TestQuickVsReferenceLRU(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(Config{Name: "Q", Bytes: 2048, Ways: 4, Latency: 1}, &fixedLevel{latency: 10})
		ref := newRefLRU(c.Sets(), c.Ways())
		for now := uint64(0); now < 400; now++ {
			ba := uint64(rng.Intn(64))
			c.Access(Request{BlockAddr: ba}, now)
			ref.access(ba)
		}
		for ba := uint64(0); ba < 64; ba++ {
			if c.Contains(ba) != ref.contains(ba) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// refLRU is an obviously-correct set-associative LRU model.
type refLRU struct {
	sets [][]uint64 // per-set MRU→LRU order of block addresses
	ways int
}

func newRefLRU(sets, ways int) *refLRU {
	return &refLRU{sets: make([][]uint64, sets), ways: ways}
}

func (r *refLRU) access(ba uint64) {
	s := int(ba) % len(r.sets)
	q := r.sets[s]
	for i, v := range q {
		if v == ba {
			q = append(append([]uint64{ba}, q[:i]...), q[i+1:]...)
			r.sets[s] = q
			return
		}
	}
	q = append([]uint64{ba}, q...)
	if len(q) > r.ways {
		q = q[:r.ways]
	}
	r.sets[s] = q
}

func (r *refLRU) contains(ba uint64) bool {
	for _, v := range r.sets[int(ba)%len(r.sets)] {
		if v == ba {
			return true
		}
	}
	return false
}
