package cache

// Prefetch lifecycle classification through the real cache access path:
// hand-built prefetch-fill and demand sequences must classify as timely,
// late, useless-evicted, and polluting exactly as the taxonomy defines, and
// Stats.Lifecycle must derive the report breakdown from those counts.

import (
	"testing"

	"repro/internal/obs"
)

// newLifecycleCache builds a tiny direct-mapped L1 over DRAM so eviction
// targets are fully controlled: 4 sets × 1 way, 2-cycle hits, 200-cycle
// fills. Like the L1D NewHierarchy builds, it carries a victim table.
func newLifecycleCache(t *testing.T) *Cache {
	t.Helper()
	c := New(Config{Name: "L1D", Bytes: 4 * BlockBytes, Ways: 1, Latency: 2}, NewDRAM())
	c.victims = make([]uint64, 1<<victimBits)
	return c
}

func TestCacheClassifiesTimelyVsLate(t *testing.T) {
	c := newLifecycleCache(t)

	// Timely: fill block 0 at cycle 0 (ready ≈ 200+), first touch at 1000.
	c.Access(Request{BlockAddr: 0, Kind: PrefetchFill, LoadPC: 0x100}, 0)
	c.Access(Request{BlockAddr: 0, Kind: Read}, 1000)

	// Late: fill block 1 at cycle 1000, demand arrives at 1010 while the
	// fill is still in flight.
	c.Access(Request{BlockAddr: 1, Kind: PrefetchFill, LoadPC: 0x104}, 1000)
	c.Access(Request{BlockAddr: 1, Kind: Read}, 1010)

	if c.Stats.PrefetchFills != 2 || c.Stats.PrefetchUseful != 2 || c.Stats.PrefetchLate != 1 {
		t.Errorf("stats = %+v, want fills 2, useful 2, late 1", c.Stats)
	}
	st := c.Stats.Lifecycle()
	if want := (obs.LifecycleStats{Issued: 2, UsefulTimely: 1, UsefulLate: 1}); st != want {
		t.Errorf("lifecycle = %+v, want %+v", st, want)
	}
	if acc := st.Accuracy(); acc != 1.0 {
		t.Errorf("Accuracy = %v, want 1", acc)
	}
	if tml := st.Timeliness(); tml != 0.5 {
		t.Errorf("Timeliness = %v, want 0.5", tml)
	}

	// Only the first demand touch classifies: a re-read adds nothing.
	c.Access(Request{BlockAddr: 0, Kind: Read}, 2000)
	if got := c.Stats.Lifecycle(); got.Useful() != 2 || got.UsefulLate != 1 {
		t.Errorf("re-read reclassified: %+v", got)
	}
}

func TestCacheClassifiesUselessEviction(t *testing.T) {
	c := newLifecycleCache(t)

	// Prefetch block 0 into set 0, then displace it untouched with a demand
	// read of block 4 (same set in a 4-set direct-mapped cache).
	c.Access(Request{BlockAddr: 0, Kind: PrefetchFill, LoadPC: 0x100}, 0)
	c.Access(Request{BlockAddr: 4, Kind: Read}, 1000)

	st := c.Stats.Lifecycle()
	if want := (obs.LifecycleStats{Issued: 1, UselessEvicted: 1, DemandMisses: 1}); st != want {
		t.Errorf("lifecycle = %+v, want %+v", st, want)
	}
}

// TestCacheClassifiesPollution separates a useless prefetch (evicted
// untouched) from a polluting one (its fill displaced a block the program
// still needed), which here is the same prefetch.
func TestCacheClassifiesPollution(t *testing.T) {
	c := newLifecycleCache(t)

	// The program is using block 4 (set 0); a prefetch fill of block 0
	// displaces it; the demand re-miss of block 4 is pollution and evicts
	// the untouched prefetch, which is useless.
	c.Access(Request{BlockAddr: 4, Kind: Read}, 0)
	c.Access(Request{BlockAddr: 0, Kind: PrefetchFill, LoadPC: 0x100}, 500)
	c.Access(Request{BlockAddr: 4, Kind: Read}, 1000)
	want := obs.LifecycleStats{Issued: 1, UselessEvicted: 1, Polluting: 1, DemandMisses: 2}
	if st := c.Stats.Lifecycle(); st != want {
		t.Errorf("lifecycle = %+v, want %+v", st, want)
	}

	// The re-miss consumed the victim entry: evicting block 4 again by
	// demand and re-missing it is ordinary. A demand-caused eviction never
	// arms the detector either: block 0, evicted by demand block 8, is not
	// pollution when it re-misses.
	c.Access(Request{BlockAddr: 8, Kind: Read}, 2000)
	c.Access(Request{BlockAddr: 4, Kind: Read}, 3000)
	c.Access(Request{BlockAddr: 0, Kind: Read}, 4000)
	if got := c.Stats.Polluting; got != 1 {
		t.Errorf("polluting = %d after demand-only traffic, want 1 (stats %+v)", got, c.Stats)
	}
}

// TestLifecycleResetStats checks the window-boundary rule: the reset zeroes
// every counter but carries the still-untouched prefetches into the new
// window as issued, which keeps useful+useless ≤ issued.
func TestLifecycleResetStats(t *testing.T) {
	c := newLifecycleCache(t)
	c.Access(Request{BlockAddr: 0, Kind: PrefetchFill, LoadPC: 0x100}, 0)
	c.Access(Request{BlockAddr: 1, Kind: PrefetchFill, LoadPC: 0x104}, 0)
	c.Access(Request{BlockAddr: 0, Kind: Read}, 1000)
	c.Access(Request{BlockAddr: 2, Kind: Read}, 1000)

	c.ResetStats() // window boundary: block 1 is still untouched
	if c.Stats != (Stats{PrefetchCarried: 1}) {
		t.Errorf("after reset: %+v, want only carried 1", c.Stats)
	}
	if st := c.Stats.Lifecycle(); st != (obs.LifecycleStats{Issued: 1}) {
		t.Errorf("after reset: lifecycle %+v, want only issued 1", st)
	}

	c.Access(Request{BlockAddr: 1, Kind: Read}, 2000)
	st := c.Stats.Lifecycle()
	if st != (obs.LifecycleStats{Issued: 1, UsefulTimely: 1}) {
		t.Errorf("after carry-in: %+v, want issued 1, timely 1", st)
	}
	if st.Useful() > st.Issued {
		t.Errorf("useful %d exceeds issued %d despite carry-in", st.Useful(), st.Issued)
	}
}

// TestLifecycleVictimSurvivesReset pins the documented asymmetry: counters
// reset, but the pollution victim table mirrors cache contents and
// survives, so a warmup-era eviction still attributes a measurement-window
// re-miss.
func TestLifecycleVictimSurvivesReset(t *testing.T) {
	c := newLifecycleCache(t)
	c.Access(Request{BlockAddr: 4, Kind: Read}, 0)
	c.Access(Request{BlockAddr: 0, Kind: PrefetchFill, LoadPC: 0x100}, 500)
	c.ResetStats()
	c.Access(Request{BlockAddr: 4, Kind: Read}, 1000)
	if c.Stats.Polluting != 1 {
		t.Errorf("polluting = %d, want 1 (victim table must survive reset)", c.Stats.Polluting)
	}
}

// TestLifecycleNoVictimTable runs the pollution sequence on a cache built
// by New, which has no victim table (an L2 or the LLC): it counts no
// pollution, classifies everything else as the L1D does, and exports no
// lifecycle collectors.
func TestLifecycleNoVictimTable(t *testing.T) {
	c := New(Config{Name: "L2", Bytes: 4 * BlockBytes, Ways: 1, Latency: 2}, NewDRAM())
	c.Access(Request{BlockAddr: 4, Kind: Read}, 0)
	c.Access(Request{BlockAddr: 0, Kind: PrefetchFill, LoadPC: 0x100}, 500)
	c.Access(Request{BlockAddr: 4, Kind: Read}, 1000)
	want := obs.LifecycleStats{Issued: 1, UselessEvicted: 1, DemandMisses: 2}
	if st := c.Stats.Lifecycle(); st != want {
		t.Errorf("lifecycle = %+v, want %+v", st, want)
	}

	reg := obs.NewRegistry()
	c.RegisterObs(reg, "l2.")
	for _, name := range []string{"l2.pf_late", "l2.pf_carried", "l2.polluting"} {
		if _, ok := reg.Snapshot().Get(name); ok {
			t.Errorf("cache without a victim table exports %s", name)
		}
	}
}

func TestPendingPrefetched(t *testing.T) {
	c := newLifecycleCache(t)
	c.Access(Request{BlockAddr: 0, Kind: PrefetchFill, LoadPC: 0x100}, 0)
	c.Access(Request{BlockAddr: 1, Kind: PrefetchFill, LoadPC: 0x104}, 0)
	c.Access(Request{BlockAddr: 2, Kind: Read}, 0)
	if n := c.PendingPrefetched(); n != 2 {
		t.Errorf("PendingPrefetched = %d, want 2", n)
	}
	// A demand touch graduates the block out of the pending population.
	c.Access(Request{BlockAddr: 0, Kind: Read}, 1000)
	if n := c.PendingPrefetched(); n != 1 {
		t.Errorf("after touch: PendingPrefetched = %d, want 1", n)
	}
}
