package sim

// The per-cycle kernel's zero-allocation contract, asserted at system scale:
// internal/cpu's TestCycleZeroAlloc covers one core over an unbanked
// hierarchy; this is the scale-out configuration — 16 cores reaching a
// banked LLC with MSHRs and a channeled DRAM — stepped exactly as the cycle
// loops step it (every core ticked in index order).
//
// The tests count every heap allocation over a whole window of system cycles
// (runtime.MemStats deltas, not testing.AllocsPerRun's per-run quotient,
// which rounds any rate under one allocation per cycle down to zero), so a
// dispatch slice re-grown, a first-touch page or a prefetcher map growing
// once in thousands of cycles is seen.

import (
	"runtime"
	"testing"
	"time"
)

const (
	allocWarmup = 30_000 // system cycles before the window: buffers reach size
	allocWindow = 20_000 // system cycles counted
	// allocSettle is how long the window waits after its runtime.GC() for
	// the runtime's background scavenger, which that collection wakes, to
	// park: the first time it parks on a P, its sleep timer grows that P's
	// empty timer heap (one 16-byte allocation, runtime.timers.addHeap).
	allocSettle = 5 * time.Millisecond
)

// mix16Budget is the mix's measured allocation count in the window, the same
// with and without attribution and sampling. Its sources, from a heap
// profile of the window:
//   - 5 first-touch pages written by committed stores (mem.pageFor);
//   - 4 growths of B-Fetch's per-walk visited-block lists (lookahead.visit);
//   - 1 growth of B-Fetch's pending register-sample list (arf.sample).
//
// prefetch.Queue's fixed ring and block table and the core's preallocated
// request buffer add none.
const mix16Budget = 10

// budgetedMallocs returns the heap allocations of windowMallocs, measured a
// second time on a fresh system when the first count exceeds budget. The
// simulation repeats exactly, so an allocation it makes recurs; a one-off
// allocation by the Go runtime itself, such as a new OS thread
// (runtime.allocm, 5 objects), does not.
func budgetedMallocs(t *testing.T, cfg Config, budget uint64) (*System, uint64) {
	t.Helper()
	s, n := windowMallocs(t, cfg)
	if n > budget {
		s, n = windowMallocs(t, cfg)
	}
	return s, n
}

// windowMallocs builds the 16-core mix on cfg, steps it allocWarmup system
// cycles of core ticks and returns the heap allocations of the next
// allocWindow cycles.
func windowMallocs(t *testing.T, cfg Config) (*System, uint64) {
	t.Helper()
	s, err := buildSystem(cfg, mix16)
	if err != nil {
		t.Fatal(err)
	}
	due := make([]int32, 0, len(s.Cores))
	var now uint64
	step := func() {
		due = due[:0]
		for i := range s.Cores {
			if !s.Cores[i].Halted() {
				due = append(due, int32(i))
			}
		}
		s.tickCores(due, now)
		now++
	}
	for now < allocWarmup {
		step()
	}
	if len(due) != len(s.Cores) {
		t.Fatalf("only %d of %d cores still active after warmup", len(due), len(s.Cores))
	}
	// Finish any collection the set-up started, so runtime-internal
	// allocations of a concurrent GC cycle do not land in the window. The
	// collection also wakes the scavenger, which can allocate once it ends
	// (allocSettle); the settle lets it run before the window opens rather
	// than inside it.
	runtime.GC()
	time.Sleep(allocSettle)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for end := now + allocWindow; now < end; {
		step()
	}
	runtime.ReadMemStats(&after)
	if len(due) != len(s.Cores) {
		t.Fatalf("only %d of %d cores still active at the end of the window", len(due), len(s.Cores))
	}
	return s, after.Mallocs - before.Mallocs
}

// TestBankedCMPCycleZeroAlloc drives a full 16-core scale-out system — core
// ticks reaching bank arbitration, MSHR claim and DRAM channel slots — and
// holds the window to mix16Budget.
func TestBankedCMPCycleZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	if _, n := budgetedMallocs(t, DefaultScale(PFBFetch, len(mix16)), mix16Budget); n > mix16Budget {
		t.Errorf("banked 16-core system, %d cycles: %d heap allocations, budget %d", allocWindow, n, mix16Budget)
	}
}

// TestBankedCMPCycleZeroAllocAttributed is the same system cycle with CPI
// attribution charging every core every cycle. It may not add an allocation
// to the plain system's budget, or it could not ship config-gated on the
// measurement path.
func TestBankedCMPCycleZeroAllocAttributed(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := DefaultScale(PFBFetch, len(mix16))
	cfg.CPU.CPIStack = true
	s, n := budgetedMallocs(t, cfg, mix16Budget)
	if n > mix16Budget {
		t.Errorf("attributed 16-core system, %d cycles: %d heap allocations, budget %d", allocWindow, n, mix16Budget)
	}
	for i, c := range s.Cores {
		if total := c.Stats.CPI.Total(); total != c.Stats.Cycles {
			t.Errorf("core %d: CPI buckets sum to %d, want exactly Cycles = %d", i, total, c.Stats.Cycles)
		}
	}
}
