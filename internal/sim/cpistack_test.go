package sim

// CPI-stack contracts at system scale: the exact-partition invariant (every
// counted cycle lands in exactly one bucket) for every engine under both
// clock loops, solo and on the 16-core banked mix.

import (
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/workload"
)

// allKinds is every prefetch engine, the cpistack experiment's sweep set.
var allKinds = []PrefetcherKind{PFNone, PFNextN, PFStride, PFSMS, PFSTeMS, PFISB, PFBFetch}

// mix16 tiles eight memory-diverse workloads twice: the 16-core CMP mix the
// scale-out engine targets. Every core is active the whole run, so the
// banked LLC and the channeled DRAM see sustained same-cycle contention.
var mix16 = []string{
	"mcf", "lbm", "milc", "astar", "libquantum", "soplex", "sphinx", "leslie3d",
	"mcf", "lbm", "milc", "astar", "libquantum", "soplex", "sphinx", "leslie3d",
}

// mixOpts is small enough to sweep seven engines on both loops but long
// enough to fill the bank ports, bank MSHRs and DRAM channel slots.
var mixOpts = RunOpts{WarmupInsts: 2_000, MeasureInsts: 6_000}

// checkPartition asserts the exact-partition invariant on every core of a
// result: buckets sum to cycles, no slack, no overlap.
func checkPartition(t *testing.T, label string, res Result) {
	t.Helper()
	for i, cs := range res.Core {
		if total := cs.CPI.Total(); total != cs.Cycles {
			t.Errorf("%s core %d: CPI buckets sum to %d, want exactly Cycles = %d (stack %v)",
				label, i, total, cs.Cycles, cs.CPI)
		}
	}
}

// runBothLoops runs the protocol on the naive and on the event loop and
// checks the exact partition on each result.
func runBothLoops(t *testing.T, cfg Config, apps []string, opts RunOpts) (naive, event Result) {
	t.Helper()
	var err error
	if naive, err = runLoop(cfg, apps, opts, true); err != nil {
		t.Fatalf("naive loop: %v", err)
	}
	checkPartition(t, "naive", naive)
	if event, err = runLoop(cfg, apps, opts, false); err != nil {
		t.Fatalf("event loop: %v", err)
	}
	checkPartition(t, "event", event)
	return naive, event
}

// TestCPIStackExactPartition runs every engine with attribution enabled,
// solo under both loops, and requires (a) the partition to be exact and
// (b) the event loop's per-bucket charges — including the piecewise gap
// replay — to be bit-identical to the naive loop's cycle-by-cycle ones.
func TestCPIStackExactPartition(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(string(kind), func(t *testing.T) {
			t.Parallel()
			cfg := Default(kind)
			cfg.CPU.CPIStack = true
			naive, event := runBothLoops(t, cfg, []string{"mcf"}, eqOpts)
			if !reflect.DeepEqual(naive, event) {
				t.Errorf("attributed snapshots diverge across loops\nnaive: %+v\nevent: %+v",
					naive.Core, event.Core)
			}
		})
	}
}

// TestCPIStackExactPartitionBankedMix extends the invariant to the 16-core
// scale-out system — banked LLC with MSHRs, channeled DRAM — where the
// queueing buckets (llc_bank_queue, mshr, dram_chan_queue) actually charge,
// for every engine under both loops.
func TestCPIStackExactPartitionBankedMix(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, kind := range allKinds {
		t.Run(string(kind), func(t *testing.T) {
			t.Parallel()
			cfg := DefaultScale(kind, len(mix16))
			cfg.CPU.CPIStack = true
			naive, event := runBothLoops(t, cfg, mix16, mixOpts)
			if !reflect.DeepEqual(naive, event) {
				t.Errorf("attributed mix snapshots diverge across loops")
			}
		})
	}
}

// parkedLoadKernel is the cpu package's parked-load kernel as a workload:
// each iteration's store takes its address from a pointer load that misses
// to DRAM, a younger independent load waits parked behind that store for the
// whole miss, and a same-address reload is forwarded from the store.
func parkedLoadKernel(iters int) workload.Workload {
	return workload.New("parked", "loads parked behind unresolved stores", "pointer", true,
		func() (*isa.Program, *mem.Memory) {
			const ptrs, targets, other = 0x100000, 0x800000, 0x200000
			m := mem.New()
			for i := 0; i < iters; i++ {
				m.WriteInt64(uint64(ptrs+i*4096), int64(targets+i*64))
			}
			b := isa.NewBuilder()
			b.Movi(isa.R(1), ptrs)
			b.Movi(isa.R(7), other)
			b.Movi(isa.R(10), int64(iters))
			loop := b.Here()
			b.Ld(isa.R(2), isa.R(1), 0)
			b.St(isa.R(10), isa.R(2), 0)
			b.Ld(isa.R(4), isa.R(7), 0)
			b.Ld(isa.R(5), isa.R(2), 0)
			b.Addi(isa.R(1), isa.R(1), 4096)
			b.Addi(isa.R(7), isa.R(7), 8)
			b.Addi(isa.R(10), isa.R(10), -1)
			b.Bnez(isa.R(10), loop)
			b.Halt()
			return b.MustProgram(), m
		})
}

// TestCPIStackParkedLoadGap covers the gaps the event loop skips while a
// load sits parked behind a store whose address is still in flight: the
// naive and event loops must agree on every counter (cycles, store
// forwards, each CPI bucket) and both must partition the cycles exactly.
func TestCPIStackParkedLoadGap(t *testing.T) {
	cfg := Default(PFNone)
	cfg.CPU.CPIStack = true
	cfg.Cores = 1
	w := parkedLoadKernel(1_200)
	opts := RunOpts{WarmupInsts: 2_000, MeasureInsts: 6_000}
	run := func(naive bool) Result {
		s, err := New(cfg, []workload.Workload{w})
		if err != nil {
			t.Fatal(err)
		}
		s.naive = naive
		res, err := runProtocol(s, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	naive, event := run(true), run(false)
	checkPartition(t, "naive", naive)
	checkPartition(t, "event", event)
	cs := event.Core[0]
	if cs.StoreForwards == 0 || cs.CPI[obs.CPIDRAM] == 0 {
		t.Errorf("kernel no longer forwards (%d) or stalls on DRAM (%d cycles)",
			cs.StoreForwards, cs.CPI[obs.CPIDRAM])
	}
	if !reflect.DeepEqual(naive, event) {
		t.Errorf("parked-load snapshots diverge across loops\nnaive: %+v\nevent: %+v",
			naive.Core, event.Core)
	}
}
