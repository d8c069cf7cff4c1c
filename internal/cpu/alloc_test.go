package cpu

// These tests turn the zero-allocation claim on the per-cycle kernel from a
// benchmark observation (BenchmarkCoreCycle) into failing assertions, engine
// by engine. bfetch-lint's compiler-witnessed escape gate enforces the same
// contract statically; this is the dynamic witness, and a coarse one:
// testing.AllocsPerRun integer-divides the window's mallocs by its runs, so
// a window fails only at one allocation per cycle or more. Rarer
// allocations — a first-touch page, a map growing, a slice re-grown once per
// few hundred cycles — pass unseen; the static gate is what rules them out.

import (
	"testing"

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
)

// mkPrefetcher builds one engine; B-Fetch snoops the branch predictor and
// confidence estimator, so constructors receive the core's instances.
type mkPrefetcher func(bp *branch.Predictor, conf *branch.Confidence) prefetch.Prefetcher

var allocEngines = []struct {
	name string
	mk   mkPrefetcher
}{
	{"none", func(*branch.Predictor, *branch.Confidence) prefetch.Prefetcher { return prefetch.None{} }},
	{"nextn", func(*branch.Predictor, *branch.Confidence) prefetch.Prefetcher { return prefetch.NewNextN(4) }},
	{"stride", func(*branch.Predictor, *branch.Confidence) prefetch.Prefetcher {
		return prefetch.NewStride(prefetch.DefaultStrideConfig())
	}},
	{"sms", func(*branch.Predictor, *branch.Confidence) prefetch.Prefetcher { return sms.New(sms.DefaultConfig()) }},
	{"stems", func(*branch.Predictor, *branch.Confidence) prefetch.Prefetcher {
		return stems.New(stems.DefaultConfig())
	}},
	{"isb", func(*branch.Predictor, *branch.Confidence) prefetch.Prefetcher { return isb.New(isb.DefaultConfig()) }},
	{"bfetch", func(bp *branch.Predictor, conf *branch.Confidence) prefetch.Prefetcher {
		return core.New(core.DefaultConfig(), bp, conf)
	}},
}

// newAllocCore mirrors newTestCore but shares the branch machinery with the
// prefetch engine and wires L1D feedback, matching the sim package's full
// configuration so feedback callbacks run inside the measured window. The
// observability layer is attached exactly as sim assembles it — registry
// collectors, lifecycle classifier, and a sampled tracer in its default-off
// configuration — so the zero-alloc claim covers the instrumented hot path.
func newAllocCore(prog *isa.Program, m *mem.Memory, mk mkPrefetcher) *Core {
	return newAllocCoreCfg(DefaultConfig(), prog, m, mk)
}

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
	lc := obs.NewLifecycle(reg, "c0.pf.")
	// Sampling off (keep 1 in 2^62): the Record path still runs per event.
	lc.SetTrace(obs.NewTrace(256, 1<<62))
	hier.L1D.SetLifecycle(lc)

	c := New(cfg, prog, m, hier, bp, conf, pf)
	c.RegisterObs(reg, "c0.cpu.")
	return c
}

// TestCycleZeroAlloc drives the full core — fetch through commit, cache
// hierarchy, prefetcher tick, feedback — and requires a steady state of zero
// heap allocations per cycle for every engine.
func TestCycleZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, eng := range allocEngines {
		t.Run(eng.name, func(t *testing.T) {
			prog, image := benchProgram()
			c := newAllocCore(prog, image, eng.mk)
			var now uint64
			// Warm every internal buffer and table to steady-state capacity.
			for ; now < 50_000; now++ {
				c.Cycle(now)
			}
			if c.Halted() {
				t.Fatal("core halted during warmup")
			}
			avg := testing.AllocsPerRun(2000, func() {
				c.Cycle(now)
				now++
			})
			if avg != 0 {
				t.Errorf("Cycle with %s engine: %.3f allocs/cycle, want 0", eng.name, avg)
			}
		})
	}
}

// TestCycleZeroAllocCPIStack is TestCycleZeroAlloc with cycle attribution
// enabled: the per-cycle charge — head-of-ROB classification, the
// LoadClassified cache path, and the gap-charging arithmetic behind it —
// must add zero heap allocations for every engine, or the CPI stack could
// never ship config-gated on the measurement path.
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
			prog, image := benchProgram()
			c := newAllocCoreCfg(cfg, prog, image, eng.mk)
			var now uint64
			for ; now < 50_000; now++ {
				c.Cycle(now)
			}
			if c.Halted() {
				t.Fatal("core halted during warmup")
			}
			avg := testing.AllocsPerRun(2000, func() {
				c.Cycle(now)
				now++
			})
			if avg != 0 {
				t.Errorf("Cycle with %s engine + CPI attribution: %.3f allocs/cycle, want 0", eng.name, avg)
			}
			if total := c.Stats.CPI.Total(); total != c.Stats.Cycles {
				t.Errorf("CPI buckets sum to %d, want exactly Cycles = %d", total, c.Stats.Cycles)
			}
		})
	}
}

// TestAppendTickZeroAlloc exercises each engine standalone: a strided miss
// stream over a bounded working set through OnAccess (plus a decode feed for
// the lookahead engine), with AppendTick draining into a reused dst — the
// exact per-cycle contract the sim loop relies on.
func TestAppendTickZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	const (
		base  = uint64(0x40000)
		span  = uint64(1 << 16)
		block = uint64(64)
	)
	for _, eng := range allocEngines {
		t.Run(eng.name, func(t *testing.T) {
			bp := branch.New(branch.DefaultConfig())
			conf := branch.NewConfidence(branch.DefaultConfidenceConfig())
			pf := eng.mk(bp, conf)
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
			for i := 0; i < 20_000; i++ {
				step()
			}
			if avg := testing.AllocsPerRun(2000, step); avg != 0 {
				t.Errorf("%s AppendTick: %.3f allocs/tick, want 0", eng.name, avg)
			}
		})
	}
}
