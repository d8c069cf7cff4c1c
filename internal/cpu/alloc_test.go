package cpu

// These tests turn the zero-allocation claim on the per-cycle kernel from a
// benchmark observation (BenchmarkCoreCycle) into failing assertions, engine
// by engine. bfetch-lint's compiler-witnessed escape gate enforces the same
// contract statically; this is the dynamic witness. The tests count every
// heap allocation over a whole window of cycles or engine steps
// (runtime.MemStats deltas, not testing.AllocsPerRun's per-run quotient,
// which rounds any rate under one allocation per call down to zero), so a
// first-touch page, a map growing or a slice re-grown once in thousands of
// cycles is seen.

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/isb"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/prefetch"
	"repro/internal/sms"
	"repro/internal/stems"
	"repro/internal/workload"
)

// mkPrefetcher builds one engine; B-Fetch snoops the branch predictor and
// confidence estimator, so constructors receive the core's instances.
type mkPrefetcher func(bp *branch.Predictor, conf *branch.Confidence) prefetch.Prefetcher

// allocEngines lists every engine with its allocation budget for
// TestCycleZeroAlloc's window: 0 where the window measures 0, otherwise the
// measured count plus the seed-dependent slack, with its source.
var allocEngines = []struct {
	name   string
	mk     mkPrefetcher
	budget uint64
}{
	{"none", func(*branch.Predictor, *branch.Confidence) prefetch.Prefetcher { return prefetch.None{} }, 0},
	{"nextn", func(*branch.Predictor, *branch.Confidence) prefetch.Prefetcher { return prefetch.NewNextN(4) }, 0},
	{"stride", func(*branch.Predictor, *branch.Confidence) prefetch.Prefetcher {
		return prefetch.NewStride(prefetch.DefaultStrideConfig())
	}, 0},
	{"sms", func(*branch.Predictor, *branch.Confidence) prefetch.Prefetcher { return sms.New(sms.DefaultConfig()) }, 0},
	{"stems", func(*branch.Predictor, *branch.Confidence) prefetch.Prefetcher {
		return stems.New(stems.DefaultConfig())
	}, 0},
	// ISB's structural-address maps grow as it learns new blocks (map2):
	// 18 allocations in the window, up to 21 depending on hash seeds.
	{"isb", func(*branch.Predictor, *branch.Confidence) prefetch.Prefetcher { return isb.New(isb.DefaultConfig()) }, 21},
	{"bfetch", func(bp *branch.Predictor, conf *branch.Confidence) prefetch.Prefetcher {
		return core.New(core.DefaultConfig(), bp, conf)
	}, 0},
}

// newAllocCoreCfg mirrors newTestCoreCfg but shares the branch machinery
// with the prefetch engine and wires L1D feedback, matching the sim
// package's full configuration so feedback callbacks run inside the
// measured window. The registry collectors are attached exactly as sim
// assembles them, and NewHierarchy gives the L1D its pollution victim
// table, so the zero-alloc claim covers the instrumented hot path.
func newAllocCoreCfg(cfg Config, prog *isa.Program, m *mem.Memory, mk mkPrefetcher) *Core {
	dram := cache.NewDRAM()
	llc := cache.New(cache.Config{Name: "L3", Bytes: 2 << 20, Ways: 16, Latency: 20}, dram)
	hier := cache.NewHierarchy(cache.DefaultHierarchyConfig(), llc, 0)
	bp := branch.New(branch.DefaultConfig())
	conf := branch.NewConfidence(branch.DefaultConfidenceConfig())
	pf := mk(bp, conf)
	hier.L1D.SetFeedback(pf)

	reg := obs.NewRegistry()
	llc.RegisterObs(reg, "llc.")
	dram.RegisterObs(reg, "dram.")
	hier.L1D.RegisterObs(reg, "c0.l1d.")
	if r, ok := pf.(obs.Registrant); ok {
		r.RegisterObs(reg, "c0.pf.")
	}

	c := New(cfg, prog, m, hier, bp, conf, pf)
	c.RegisterObs(reg, "c0.cpu.")
	return c
}

const (
	allocWarmup = 50_000 // cycles before the window: buffers and tables reach size
	allocWindow = 60_000 // cycles counted
	// allocSettle is how long the window waits after its runtime.GC() for
	// the runtime's background scavenger, which that collection wakes, to
	// park. The first time the scavenger parks on a P, its sleep timer
	// grows that P's empty timer heap: one 16-byte allocation
	// (runtime.timers.addHeap), once per P per process, on another P
	// while the window runs. Without the settle, 24 in 200 runs of the
	// test binary fail TestCycleZeroAlloc; with 5 ms, 0 in 200.
	allocSettle = 5 * time.Millisecond
)

// budgetedMallocs returns the heap allocations of windowMallocs, measured a
// second time on a fresh core when the first count exceeds budget. The
// simulation repeats exactly, so an allocation it makes recurs; a one-off
// allocation by the Go runtime itself does not. One the settle does not
// prevent is a new OS thread (runtime.allocm: the m, its g0 and signal
// goroutines and two profiling stacks, 5 objects), which started inside
// a window in 1 of 60 runs of this test binary.
func budgetedMallocs(t *testing.T, cfg Config, mk mkPrefetcher, budget uint64) (*Core, uint64) {
	t.Helper()
	c, n := windowMallocs(t, cfg, mk)
	if n > budget {
		c, n = windowMallocs(t, cfg, mk)
	}
	return c, n
}

// windowMallocs runs the milc kernel (pointer-chasing phases whose producer
// fan-out and working set keep changing, so storage that grows on demand
// shows up long after warmup) on a core built with cfg, and returns the
// heap allocations made during the counted window.
func windowMallocs(t *testing.T, cfg Config, mk mkPrefetcher) (*Core, uint64) {
	t.Helper()
	w, err := workload.ByName("milc")
	if err != nil {
		t.Fatal(err)
	}
	prog, image := w.Build()
	c := newAllocCoreCfg(cfg, prog, image, mk)
	var now uint64
	for ; now < allocWarmup; now++ {
		c.Cycle(now)
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
	for end := now + allocWindow; now < end; now++ {
		c.Cycle(now)
	}
	runtime.ReadMemStats(&after)
	if c.Halted() {
		t.Fatal("core halted inside the window")
	}
	return c, after.Mallocs - before.Mallocs
}

// TestCycleZeroAlloc drives the full core — fetch through commit, cache
// hierarchy, prefetcher tick, feedback — and holds every engine to its
// allocation budget over the window.
func TestCycleZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, eng := range allocEngines {
		t.Run(eng.name, func(t *testing.T) {
			if _, n := budgetedMallocs(t, DefaultConfig(), eng.mk, eng.budget); n > eng.budget {
				t.Errorf("%d cycles with %s engine: %d heap allocations, budget %d",
					allocWindow, eng.name, n, eng.budget)
			}
		})
	}
}

// TestCycleZeroAllocCPIStack is TestCycleZeroAlloc with cycle attribution
// enabled: the per-cycle charge — head-of-ROB classification, the
// classified cache load, and the gap-charging arithmetic behind it —
// must add no heap allocation for any engine, or the CPI stack could never
// ship config-gated on the measurement path.
func TestCycleZeroAllocCPIStack(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := DefaultConfig()
	cfg.CPIStack = true
	for _, eng := range allocEngines {
		t.Run(eng.name, func(t *testing.T) {
			c, n := budgetedMallocs(t, cfg, eng.mk, eng.budget)
			if n > eng.budget {
				t.Errorf("%d cycles with %s engine + CPI attribution: %d heap allocations, budget %d",
					allocWindow, eng.name, n, eng.budget)
			}
			if total := c.Stats.CPI.Total(); total != c.Stats.Cycles {
				t.Errorf("CPI buckets sum to %d, want exactly Cycles = %d", total, c.Stats.Cycles)
			}
		})
	}
}

// tickWindow is the number of standalone engine steps TestAppendTickZeroAlloc
// counts, after as many warmup steps.
const tickWindow = 20_000

// tickMallocs builds one engine standalone and feeds it a strided miss
// stream over a bounded working set through OnAccess (plus a decode feed for
// the lookahead engine), with AppendTick draining into a reused dst — the
// exact per-cycle contract the sim loop relies on. It returns the heap
// allocations of the tickWindow steps after a warmup of as many.
func tickMallocs(mk mkPrefetcher) uint64 {
	const (
		base  = uint64(0x40000)
		span  = uint64(1 << 16)
		block = uint64(64)
	)
	bp := branch.New(branch.DefaultConfig())
	conf := branch.NewConfidence(branch.DefaultConfidenceConfig())
	pf := mk(bp, conf)
	dst := make([]prefetch.Request, 0, 128)
	var now, addr uint64
	step := func() {
		pf.OnAccess(prefetch.AccessInfo{PC: 0x100, Addr: base + addr, Hit: false})
		pf.OnDecode(prefetch.DecodeInfo{
			PC: 0x200, PredTaken: true, PredNext: 0x180, Target: 0x180,
		})
		addr = (addr + block) % span
		dst = pf.AppendTick(dst[:0], now)
		now++
	}
	// Warm tables, queue and scratch to steady state.
	for i := 0; i < tickWindow; i++ {
		step()
	}
	// No runtime.GC() here, unlike windowMallocs: the set-up allocates too
	// little to start a collection, and a forced one wakes runtime helpers
	// whose own allocations land in a window this short.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < tickWindow; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestAppendTickZeroAlloc holds each engine, driven standalone by
// tickMallocs, to zero heap allocations over the window; a count over zero
// is measured once more on a fresh engine.
func TestAppendTickZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	for _, eng := range allocEngines {
		t.Run(eng.name, func(t *testing.T) {
			n := tickMallocs(eng.mk)
			if n > 0 {
				n = tickMallocs(eng.mk)
			}
			if n > 0 {
				t.Errorf("%s AppendTick, %d steps: %d heap allocations, want 0", eng.name, tickWindow, n)
			}
		})
	}
}
