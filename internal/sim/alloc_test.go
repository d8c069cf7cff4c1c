package sim

// The per-cycle kernel's zero-allocation contract, asserted at system scale:
// internal/cpu's TestCycleZeroAlloc covers one core over an unbanked
// hierarchy; this is the scale-out configuration — 16 cores, deferred
// shared-level ports, banked LLC with MSHRs, channeled DRAM — stepped
// exactly as the cycle loops step it (tick phase, then port service).
//
// testing.AllocsPerRun integer-divides the window's mallocs by its runs, so
// "zero" here means fewer than one allocation per system cycle over the
// 2,000-cycle window, not none: allocations a few hundred cycles apart (a
// dispatch slice re-grown, a first-touch page, a prefetcher map growing)
// pass unseen.

import "testing"

// TestBankedCMPCycleZeroAlloc drives a full 16-core scale-out system — core
// ticks, per-core port service through bank arbitration, MSHR claim and DRAM
// channel slots — and requires a steady state of fewer than one heap
// allocation per system cycle (AllocsPerRun rounds the mean down to zero).
func TestBankedCMPCycleZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	s, err := buildSystem(DefaultScale(PFBFetch, len(mix16)), mix16)
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
		s.servicePorts(due)
		now++
	}
	// Warm every buffer — ROBs, port queues, MSHRs, channel slots, engine
	// tables — to steady-state capacity.
	for now < 30_000 {
		step()
	}
	if len(due) != len(s.Cores) {
		t.Fatalf("only %d of %d cores still active after warmup", len(due), len(s.Cores))
	}
	avg := testing.AllocsPerRun(2000, step)
	if avg != 0 {
		t.Errorf("banked 16-core system cycle: %.3f allocs/cycle, want 0", avg)
	}
}

// TestBankedCMPCycleZeroAllocAttributed is the same system cycle with the
// full observability tentpole attached: CPI attribution charging every core
// every cycle, and the interval time-series sampler firing — at an interval
// small enough that ring compaction (merge-downsampling) happens repeatedly
// inside the measured window. Both must keep the window under one heap
// allocation per cycle, or they could not ship config-gated on the
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
	cfg.TSInterval = 64
	cfg.TSMaxRows = 8
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
		s.servicePorts(due)
		now++
		for s.ts.NextAt() <= now {
			s.ts.Sample()
		}
	}
	for now < 30_000 {
		step()
	}
	if len(due) != len(s.Cores) {
		t.Fatalf("only %d of %d cores still active after warmup", len(due), len(s.Cores))
	}
	if s.ts.Rows() == 0 {
		t.Fatal("sampler took no rows during warmup")
	}
	avg := testing.AllocsPerRun(2000, step)
	if avg != 0 {
		t.Errorf("attributed+sampled system cycle: %.3f allocs/cycle, want 0", avg)
	}
	for i, c := range s.Cores {
		if total := c.Stats.CPI.Total(); total != c.Stats.Cycles {
			t.Errorf("core %d: CPI buckets sum to %d, want exactly Cycles = %d", i, total, c.Stats.Cycles)
		}
	}
}
