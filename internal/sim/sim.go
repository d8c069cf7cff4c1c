// Package sim assembles complete simulated systems — single-core or CMP with
// a shared LLC and DRAM channel — from the substrate packages, and provides
// the fast-forward/warmup/measure loop every experiment uses.
package sim

import (
	"fmt"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/isb"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/prefetch"
	"repro/internal/sms"
	"repro/internal/stems"
	"repro/internal/workload"
)

// PrefetcherKind names the prefetcher configurations the paper evaluates.
type PrefetcherKind string

const (
	PFNone    PrefetcherKind = "none"
	PFStride  PrefetcherKind = "stride"
	PFSMS     PrefetcherKind = "sms"
	PFBFetch  PrefetcherKind = "bfetch"
	PFPerfect PrefetcherKind = "perfect" // oracle: every L1D read hits
	PFNextN   PrefetcherKind = "nextn"
	PFCustom  PrefetcherKind = "custom" // built by Config.Factory
	PFISB     PrefetcherKind = "isb"    // heavy-weight comparator (extension)
	PFSTeMS   PrefetcherKind = "stems"  // heavy-weight comparator (extension)
)

// Kinds returns the prefetchers in the order the paper's figures use.
var Kinds = []PrefetcherKind{PFNone, PFStride, PFSMS, PFBFetch}

// Config describes one system under test. The zero value is not valid; use
// Default and adjust.
type Config struct {
	Cores int

	CPU        cpu.Config
	Hier       cache.HierarchyConfig
	LLCPerCore int // bytes of shared LLC per core (Table II: 2 MB/core)
	LLCWays    int
	LLCLatency uint64

	Branch     branch.Config
	Confidence branch.ConfidenceConfig

	// DRAMCyclesPerFill is the shared channel's occupancy per 64-byte
	// transfer; Table II's 12.8 GB/s at 3.2 GHz is 16.
	DRAMCyclesPerFill uint64

	// Scale-out memory-system knobs (all zero in the Table II baseline,
	// reproducing the original uncontended models exactly).
	//
	// LLCBanks > 1 address-interleaves the shared LLC into that many banks
	// (power of two), each holding its port for LLCBankBusy cycles per
	// access and capping outstanding misses at LLCMSHRs (0 = unbounded).
	LLCBanks    int
	LLCBankBusy uint64
	LLCMSHRs    int
	// DRAMChannels > 1 splits DRAM bandwidth across address-interleaved
	// channels (power of two), each limited to DRAMChanInflight concurrent
	// transfers (0 = unbounded).
	DRAMChannels     int
	DRAMChanInflight int

	Prefetcher PrefetcherKind
	BFetch     core.Config // used when Prefetcher == PFBFetch
	SMS        sms.Config  // used when Prefetcher == PFSMS
	Stride     prefetch.StrideConfig
	NextN      int
	ISB        isb.Config   // used when Prefetcher == PFISB
	STeMS      stems.Config // used when Prefetcher == PFSTeMS

	// Factory builds the prefetcher when Prefetcher == PFCustom; it is
	// called once per core with that core's branch predictor and
	// confidence estimator (which B-Fetch-style engines may share).
	Factory func(bp *branch.Predictor, conf *branch.Confidence) prefetch.Prefetcher
}

// Default returns the Table II baseline with the given prefetcher.
func Default(pf PrefetcherKind) Config {
	return Config{
		Cores:      1,
		CPU:        cpu.DefaultConfig(),
		Hier:       cache.DefaultHierarchyConfig(),
		LLCPerCore: 2 << 20,
		LLCWays:    16,
		LLCLatency: 20,
		Branch:     branch.DefaultConfig(),
		Confidence: branch.DefaultConfidenceConfig(),

		DRAMCyclesPerFill: 16,
		Prefetcher:        pf,
		BFetch:            core.DefaultConfig(),
		SMS:               sms.DefaultConfig(),
		Stride:            prefetch.DefaultStrideConfig(),
		NextN:             4,
		ISB:               isb.DefaultConfig(),
		STeMS:             stems.DefaultConfig(),
	}
}

// DefaultScale returns the scale-out configuration for a CMP of the given
// size: the Table II baseline plus a banked LLC and a channeled DRAM whose
// capacities grow with the core count, so big mixes contend for realistic
// shared resources instead of an infinitely-ported LLC and a single
// serializing DRAM channel.
func DefaultScale(pf PrefetcherKind, cores int) Config {
	cfg := Default(pf)
	cfg.Cores = cores
	banks, channels := 4, 2
	switch {
	case cores > 16:
		banks, channels = 16, 8
	case cores > 4:
		banks, channels = 8, 4
	}
	cfg.LLCBanks = banks
	cfg.LLCBankBusy = 2
	cfg.LLCMSHRs = 16
	cfg.DRAMChannels = channels
	cfg.DRAMChanInflight = 8
	return cfg
}

// System is an assembled simulation: cores with private hierarchies over a
// shared LLC and DRAM channel.
type System struct {
	Cfg   Config //bfetch:noreset configuration
	Cores []*cpu.Core
	PFs   []prefetch.Prefetcher
	LLC   *cache.Cache
	DRAM  *cache.DRAM

	// Reg is the system's metrics registry: every component — cores,
	// caches, DRAM, prefetch engines — registers collectors into it at
	// assembly, and Snapshot reads them.
	Reg *obs.Registry //bfetch:noreset collectors only; each component resets its own counters

	// naive selects the reference clock loop (runNaive) over the event loop.
	// Only the equivalence tests set it: the naive loop is their oracle.
	naive bool //bfetch:noreset configuration

	clock     uint64 //bfetch:noreset global simulation clock, monotonic across the reset
	statsBase uint64 // clock value at the last ResetStats

	// Run-loop scratch state, reseeded at every Run call.
	next          []uint64 //bfetch:noreset scheduler state, reseeded by Run
	nextUncounted []uint64 //bfetch:noreset scheduler state, reseeded by Run
	due           []int32  //bfetch:noreset scratch
}

// boot is one core's starting state: a program, its memory image, and —
// when resuming from a fast-forward — the architectural state to install.
type boot struct {
	prog *isa.Program
	mem  *mem.Memory
	arch *emu.Arch // nil: start at the program entry with zeroed registers
}

// New builds a system running the given applications, one per core, each
// starting at its program entry.
func New(cfg Config, apps []workload.Workload) (*System, error) {
	if cfg.Cores != len(apps) {
		return nil, fmt.Errorf("sim: %d cores but %d applications", cfg.Cores, len(apps))
	}
	boots := make([]boot, len(apps))
	for i, app := range apps {
		prog, image := app.Build()
		boots[i] = boot{prog: prog, mem: image}
	}
	return assemble(cfg, boots)
}

// NewFromCheckpoints builds a system with each core resuming from a
// fast-forward checkpoint (one per core). Restores are copy-on-write, so
// systems sharing checkpoints share their images' footprint; only the
// architectural state is installed — caches, predictors and prefetchers
// start cold, to be warmed by the run protocol.
func NewFromCheckpoints(cfg Config, cps []*ckpt.Checkpoint) (*System, error) {
	if cfg.Cores != len(cps) {
		return nil, fmt.Errorf("sim: %d cores but %d checkpoints", cfg.Cores, len(cps))
	}
	boots := make([]boot, len(cps))
	for i, cp := range cps {
		prog, image, arch := cp.Restore()
		if arch.Halted {
			return nil, fmt.Errorf("sim: checkpoint of %s is halted (%d of %d insts retired): nothing left to measure",
				cp.Workload, arch.Retired, cp.FFInsts)
		}
		a := arch
		boots[i] = boot{prog: prog, mem: image, arch: &a}
	}
	return assemble(cfg, boots)
}

// Validate reports a configuration assemble cannot build — a core that
// can never commit, a cache geometry (L1D, L2, or the LLC at this core
// count) that is not a power of two, a branch table or a table of the
// selected prefetch engine of the wrong size, an unknown prefetcher, or a
// custom one without a Factory — so a bad configuration fails with a
// message naming the part instead of a panic deep inside a constructor.
func (cfg Config) Validate() error {
	if cfg.Cores < 1 {
		return fmt.Errorf("sim: Cores must be at least 1, got %d", cfg.Cores)
	}
	parts := []interface{ Validate() error }{cfg.CPU, cfg.Hier, cfg.llc(), cfg.Branch, cfg.Confidence}
	switch cfg.Prefetcher {
	case PFNone, PFPerfect, PFNextN:
	case PFCustom:
		if cfg.Factory == nil {
			return fmt.Errorf("sim: custom prefetcher without a Factory")
		}
	case PFStride:
		parts = append(parts, cfg.Stride)
	case PFSMS:
		parts = append(parts, cfg.SMS)
	case PFISB:
		parts = append(parts, cfg.ISB)
	case PFSTeMS:
		parts = append(parts, cfg.STeMS)
	case PFBFetch:
		parts = append(parts, cfg.BFetch)
	default:
		return fmt.Errorf("sim: unknown prefetcher %q", cfg.Prefetcher)
	}
	for _, part := range parts {
		if err := part.Validate(); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	return nil
}

// llc returns the shared LLC's configuration at the configured core count.
func (cfg Config) llc() cache.Config {
	return cache.Config{
		Name:     "L3",
		Bytes:    cfg.LLCPerCore * cfg.Cores,
		Ways:     cfg.LLCWays,
		Latency:  cfg.LLCLatency,
		Banks:    cfg.LLCBanks,
		BankBusy: cfg.LLCBankBusy,
		MSHRs:    cfg.LLCMSHRs,
	}
}

// assemble wires cores, hierarchies, prefetchers, shared LLC and DRAM.
func assemble(cfg Config, boots []boot) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dram := cache.NewDRAM()
	if cfg.DRAMCyclesPerFill > 0 {
		dram.CyclesPerFill = cfg.DRAMCyclesPerFill
	}
	if err := dram.SetChannels(cfg.DRAMChannels, cfg.DRAMChanInflight); err != nil {
		return nil, err
	}
	llc := cache.New(cfg.llc(), dram)

	reg := obs.NewRegistry()
	llc.RegisterObs(reg, "llc.")
	dram.RegisterObs(reg, "dram.")

	s := &System{Cfg: cfg, LLC: llc, DRAM: dram, Reg: reg}
	for i, bt := range boots {
		prog, image := bt.prog, bt.mem
		hier := cache.NewHierarchy(cfg.Hier, llc, i)
		bp := branch.New(cfg.Branch)
		conf := branch.NewConfidence(cfg.Confidence)

		var pf prefetch.Prefetcher
		switch cfg.Prefetcher {
		case PFNone, PFPerfect:
			pf = prefetch.None{}
		case PFStride:
			pf = prefetch.NewStride(cfg.Stride)
		case PFNextN:
			pf = prefetch.NewNextN(cfg.NextN)
		case PFSMS:
			pf = sms.New(cfg.SMS)
		case PFISB:
			pf = isb.New(cfg.ISB)
		case PFSTeMS:
			pf = stems.New(cfg.STeMS)
		case PFBFetch:
			pf = core.New(cfg.BFetch, bp, conf)
		case PFCustom:
			pf = cfg.Factory(bp, conf)
		}
		if cfg.Prefetcher == PFPerfect {
			hier.L1D.Perfect = true
		}
		hier.L1D.SetFeedback(pf)

		c := cpu.New(cfg.CPU, prog, image, hier, bp, conf, pf)
		if bt.arch != nil {
			c.BootArch(*bt.arch)
		}

		// Register the core's components. Every engine exports under the
		// same "pf." namespace, so tables and JSON read one set of names
		// regardless of engine.
		prefix := fmt.Sprintf("c%d.", i)
		c.RegisterObs(reg, prefix+"cpu.")
		hier.L1D.RegisterObs(reg, prefix+"l1d.")
		hier.L2.RegisterObs(reg, prefix+"l2.")
		if r, ok := pf.(obs.Registrant); ok {
			r.RegisterObs(reg, prefix+"pf.")
		}

		s.Cores = append(s.Cores, c)
		s.PFs = append(s.PFs, pf)
	}
	return s, nil
}

// Run advances the shared clock until every core has committed instsPerCore
// instructions (or halted), erroring out at the cycle bound or on an
// architectural fault. Cores that reach their budget stop cycling, matching
// the paper's run-until-all-done methodology.
//
// The clock skips cycles in which no core has work (runEvent); the result is
// bit-identical, statistics and errors alike, to ticking every core every
// cycle (runNaive, the tests' oracle).
func (s *System) Run(instsPerCore, maxCycles uint64) error {
	target := make([]uint64, len(s.Cores))
	for i, c := range s.Cores {
		target[i] = c.Stats.Committed + instsPerCore
	}
	limit := s.clock + maxCycles
	if s.naive {
		return s.runNaive(target, limit, instsPerCore, maxCycles)
	}
	return s.runEvent(target, limit, instsPerCore, maxCycles)
}

// tickCores runs Cycle(now) on every core in due, in index order (due is
// always ascending). Each core reaches the shared LLC and DRAM synchronously
// during its tick, so the tick order is the arbitration rule: within a
// cycle, a lower-indexed core's request claims an LLC bank, MSHR or DRAM
// channel slot first.
func (s *System) tickCores(due []int32, now uint64) {
	for _, i := range due {
		s.Cores[i].Cycle(now)
	}
}

// boundErr reports a run that hit the cycle bound, naming the core furthest
// from its commit target so heterogeneous mixes point at the actual
// straggler. Both loops return it under identical conditions with identical
// text.
func (s *System) boundErr(target []uint64, instsPerCore, maxCycles uint64) error {
	lag, lagShort := -1, uint64(0)
	unfinished := 0
	for i, c := range s.Cores {
		if c.Stats.Committed >= target[i] {
			continue
		}
		unfinished++
		if short := target[i] - c.Stats.Committed; short > lagShort {
			lag, lagShort = i, short
		}
	}
	if lag < 0 {
		// Boundary case: the final cores finished on the very cycle the
		// bound fell on; the naive loop has always reported this as a bound
		// error, so both loops still do.
		return fmt.Errorf("sim: exceeded %d cycles before reaching %d instructions/core (all cores reached their targets at the bound)",
			maxCycles, instsPerCore)
	}
	return fmt.Errorf("sim: exceeded %d cycles before reaching %d instructions/core (%d of %d cores unfinished; core %d lags furthest at %d of %d insts)",
		maxCycles, instsPerCore, unfinished, len(s.Cores), lag, s.Cores[lag].Stats.Committed, target[lag])
}

// runNaive is the reference loop: every still-running core is ticked every
// cycle, in index order, whether or not it can make progress.
func (s *System) runNaive(target []uint64, limit, instsPerCore, maxCycles uint64) error {
	for {
		due := s.due[:0]
		for i, c := range s.Cores {
			if c.Halted() {
				if err := c.Err(); err != nil {
					return fmt.Errorf("sim: core %d: %w", i, err)
				}
				continue
			}
			if c.Stats.Committed >= target[i] {
				continue
			}
			due = append(due, int32(i))
		}
		s.due = due
		if len(due) == 0 {
			return nil
		}
		s.tickCores(due, s.clock)
		s.clock++
		if s.clock >= limit {
			return s.boundErr(target, instsPerCore, maxCycles)
		}
	}
}

// runEvent advances the clock directly to the earliest cycle at which any
// core has scheduled work, crediting skipped cycles to each still-running
// core's counter — exactly what the naive loop's empty ticks would have
// done. Each core's next-event cycle is cached in next and recomputed only
// when the core itself ticks: its next event depends only on core-local
// state (ROB completion times, fetch-queue timestamps, prefetch-engine
// occupancy), since shared-level contention shifts the latencies that state
// was built from at the access itself, never afterwards. One pass over next
// per event finds the earliest cycle and collects the cores due then in
// index order, which is the tick order tickCores needs. A finished or
// halted core holds cpu.NoEvent; a scheduled one holds at most limit, so a
// stuck core (NextEvent answers cpu.NoEvent without halting) still ends the
// run at the bound, as the naive loop's spin would. Idle crediting is lazy:
// each core records the first cycle not yet reflected in its counter
// (nextUncounted) and absorbs the gap the next time it ticks, or in one
// flush when the run ends early.
func (s *System) runEvent(target []uint64, limit, instsPerCore, maxCycles uint64) error {
	n := len(s.Cores)
	if cap(s.next) < n {
		s.next = make([]uint64, n)
		s.nextUncounted = make([]uint64, n)
	}
	s.next = s.next[:n]
	s.nextUncounted = s.nextUncounted[:n]
	for i, c := range s.Cores {
		s.next[i] = cpu.NoEvent
		if c.Halted() {
			if err := c.Err(); err != nil {
				return fmt.Errorf("sim: core %d: %w", i, err)
			}
			continue
		}
		if c.Stats.Committed >= target[i] {
			continue
		}
		s.nextUncounted[i] = s.clock
		s.next[i] = s.clock
	}
	for {
		t := uint64(cpu.NoEvent)
		due := s.due[:0]
		for i, k := range s.next {
			if k < t {
				t = k
				due = append(due[:0], int32(i))
			} else if k == t {
				due = append(due, int32(i))
			}
		}
		s.due = due
		if t == cpu.NoEvent {
			// Every core finished or halted cleanly.
			return nil
		}
		if t > s.clock {
			// Idle gap (t == limit: every remaining core is stuck or idle
			// past the bound — the naive loop would spin to it).
			if t >= limit {
				s.flushIdle(limit, target)
				s.clock = limit
				return s.boundErr(target, instsPerCore, maxCycles)
			}
			s.clock = t
		}
		now := s.clock
		for _, i := range due {
			if nu := s.nextUncounted[i]; nu < now {
				s.Cores[i].AddIdleCycles(nu, now-nu)
			}
			s.nextUncounted[i] = now + 1
		}
		s.tickCores(due, now)
		faulted := -1
		for _, i := range due {
			c := s.Cores[i]
			s.next[i] = cpu.NoEvent
			if c.Halted() {
				if c.Err() != nil && faulted < 0 {
					faulted = int(i)
				}
				continue
			}
			if c.Stats.Committed >= target[i] {
				continue
			}
			s.next[i] = min(max(c.NextEvent(now), now+1), limit)
		}
		s.clock = now + 1
		if s.clock >= limit {
			s.flushIdle(limit, target)
			return s.boundErr(target, instsPerCore, maxCycles)
		}
		if faulted >= 0 {
			// The naive loop discovers the fault at its next loop top.
			s.flushIdle(s.clock, target)
			return fmt.Errorf("sim: core %d: %w", faulted, s.Cores[faulted].Err())
		}
	}
}

// flushIdle credits every still-running core with the idle cycles it has
// not yet absorbed, up to (but excluding) cycle upTo: what the naive loop's
// remaining empty ticks would have counted before the run ended.
func (s *System) flushIdle(upTo uint64, target []uint64) {
	for i, c := range s.Cores {
		if c.Halted() || c.Stats.Committed >= target[i] {
			continue
		}
		if nu := s.nextUncounted[i]; nu < upTo {
			c.AddIdleCycles(nu, upTo-nu)
			s.nextUncounted[i] = upTo
		}
	}
}

// ResetStats zeroes all measurement counters (after warmup) without touching
// learned microarchitectural state. This includes each prefetcher's internal
// counters (training/coverage stats) and each L1D's prefetch lifecycle
// counts, so post-warmup snapshots describe the measurement window only.
func (s *System) ResetStats() {
	for _, c := range s.Cores {
		c.Stats = cpu.Stats{}
		c.Hierarchy().L1D.ResetStats()
		c.Hierarchy().L2.ResetStats()
	}
	for _, pf := range s.PFs {
		pf.ResetStats()
	}
	s.LLC.ResetStats()
	s.DRAM.ResetStats()
	s.statsBase = s.clock
}

// Result summarises a measured run.
type Result struct {
	IPC    []float64
	Core   []cpu.Stats
	L1D    []cache.Stats
	LLC    cache.Stats
	DRAM   cache.DRAM
	Cycles uint64

	// Lifecycle is the per-core prefetch lifecycle breakdown, derived from
	// L1D by cache.Stats.Lifecycle, and Metrics the full registry
	// snapshot — both covered by the same bit-identity guarantees (naive
	// vs event loop, -j 1 vs -j N) as every other field, since results are
	// compared with reflect.DeepEqual in those tests.
	Lifecycle []obs.LifecycleStats
	Metrics   obs.Snapshot
}

// Snapshot collects the current counters. Cycles is relative to the last
// ResetStats, matching every other counter's measurement window.
func (s *System) Snapshot() Result {
	res := Result{LLC: s.LLC.Stats, DRAM: *s.DRAM, Cycles: s.clock - s.statsBase}
	for _, c := range s.Cores {
		res.IPC = append(res.IPC, c.Stats.IPC())
		res.Core = append(res.Core, c.Stats)
		l1 := c.Hierarchy().L1D.Stats
		res.L1D = append(res.L1D, l1)
		res.Lifecycle = append(res.Lifecycle, l1.Lifecycle())
	}
	res.Metrics = s.Reg.Snapshot()
	return res
}

// RunOpts sets the measurement protocol: fast-forward the architectural
// state functionally, warm up microarchitectural state on the cycle core,
// reset counters, then measure.
type RunOpts struct {
	// FastForwardInsts is executed on the functional emulator before the
	// cycle-accurate core boots — the scaled analogue of the paper's 10 B
	// instruction fast-forward (§V-A). Zero starts the cycle core at the
	// program entry. The fast-forwarded prefix leaves every
	// microarchitectural structure cold; only architectural state
	// (registers, PC, memory) carries over. The runner's checkpoint cache
	// (internal/runner) emulates each (workload, FastForwardInsts) prefix
	// once per process and restores copy-on-write; running through sim.Run
	// directly emulates it inline, with bit-identical results.
	FastForwardInsts uint64
	WarmupInsts      uint64
	MeasureInsts     uint64
	// CyclesPerInst bounds runtime: the run aborts after
	// (Warmup+Measure)×CyclesPerInst cycles. Zero means 1000.
	CyclesPerInst uint64
}

// DefaultRunOpts is the measurement protocol used by the experiments, a
// scaled-down analogue of the paper's 10 B fast-forward / 1 B warmup / 1 B
// measure (§V-A): the fast-forward is 10× the warmup, as in the paper, and
// runs at functional-emulation cost.
func DefaultRunOpts() RunOpts {
	return RunOpts{FastForwardInsts: 1_000_000, WarmupInsts: 100_000, MeasureInsts: 300_000}
}

// Run builds a system for the named applications and executes the
// fast-forward/warmup/measure protocol, returning the measured counters.
// The fast-forward, if any, is emulated inline on each core's freshly built
// image; callers running many points over the same workloads should go
// through internal/runner, whose checkpoint cache emulates each prefix once
// and restores copy-on-write (bit-identically to this inline path).
func Run(cfg Config, appNames []string, opts RunOpts) (Result, error) {
	s, err := newForRun(cfg, appNames, opts)
	if err != nil {
		return Result{}, err
	}
	return runProtocol(s, opts)
}

// newForRun assembles the system Run would execute the protocol on: the
// named applications, fast-forwarded inline when the protocol asks for it.
func newForRun(cfg Config, appNames []string, opts RunOpts) (*System, error) {
	apps := make([]workload.Workload, len(appNames))
	for i, name := range appNames {
		w, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		apps[i] = w
	}
	cfg.Cores = len(apps)
	if err := cfg.Validate(); err != nil {
		return nil, err // before the inline fast-forward, not after it
	}

	if opts.FastForwardInsts == 0 {
		return New(cfg, apps)
	}
	boots := make([]boot, len(apps))
	for i, app := range apps {
		prog, image := app.Build()
		e := emu.New(prog, image)
		if _, ferr := e.Run(opts.FastForwardInsts); ferr != nil {
			return nil, fmt.Errorf("sim: fast-forward of %s: %w", appNames[i], ferr)
		}
		if e.Halted {
			return nil, fmt.Errorf("sim: fast-forward of %s halted after %d of %d insts: nothing left to measure",
				appNames[i], e.Retired, opts.FastForwardInsts)
		}
		a := e.Arch()
		boots[i] = boot{prog: prog, mem: image, arch: &a}
	}
	return assemble(cfg, boots)
}

// RunCheckpointed executes the warmup+measure protocol from pre-built
// fast-forward checkpoints, one per core. Each checkpoint's FFInsts must
// match opts.FastForwardInsts — the checkpoints ARE the fast-forward — so a
// result here is bit-identical to Run with the same options.
func RunCheckpointed(cfg Config, cps []*ckpt.Checkpoint, opts RunOpts) (Result, error) {
	for _, cp := range cps {
		if cp.FFInsts != opts.FastForwardInsts {
			return Result{}, fmt.Errorf("sim: checkpoint of %s fast-forwarded %d insts but protocol wants %d",
				cp.Workload, cp.FFInsts, opts.FastForwardInsts)
		}
	}
	cfg.Cores = len(cps)
	s, err := NewFromCheckpoints(cfg, cps)
	if err != nil {
		return Result{}, err
	}
	return runProtocol(s, opts)
}

// runProtocol runs warmup (cycle-accurate, counters discarded) then the
// measured window on an assembled system.
func runProtocol(s *System, opts RunOpts) (Result, error) {
	cpi := opts.CyclesPerInst
	if cpi == 0 {
		cpi = 1000
	}
	if opts.WarmupInsts > 0 {
		if err := s.Run(opts.WarmupInsts, opts.WarmupInsts*cpi); err != nil {
			return Result{}, err
		}
		s.ResetStats()
	}
	if err := s.Run(opts.MeasureInsts, opts.MeasureInsts*cpi); err != nil {
		return Result{}, err
	}
	return s.Snapshot(), nil
}

// RunSolo measures one application alone on a single-core configuration.
func RunSolo(cfg Config, appName string, opts RunOpts) (Result, error) {
	cfg.Cores = 1
	return Run(cfg, []string{appName}, opts)
}
