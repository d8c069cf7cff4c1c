package cpu

import (
	"fmt"

	"repro/internal/obs"
)

// Config sizes the out-of-order core. The defaults reproduce the paper's
// Table II baseline: a 4-wide machine with a 192-entry ROB.
type Config struct {
	Width      int // fetch/dispatch/issue/commit width
	ROBEntries int
	CachePorts int // loads issued to the L1D per cycle

	// FrontEndDelay is the fetch→dispatch latency in cycles; together with
	// RedirectPenalty it sets the branch misprediction penalty.
	FrontEndDelay   uint64
	RedirectPenalty uint64

	// FetchQueue is the decoupling buffer between fetch and dispatch.
	FetchQueue int

	// MulLatency is the integer multiply latency; all other ALU ops take
	// one cycle.
	MulLatency uint64

	// CPIStack enables per-cycle CPI-stack attribution (Stats.CPI): every
	// counted cycle is charged to exactly one obs.CPIBucket. Off by default;
	// the attribution path adds a head-of-ROB classification per cycle but
	// no allocation.
	CPIStack bool
}

// DefaultConfig is the Table II core.
func DefaultConfig() Config {
	return Config{
		Width:           4,
		ROBEntries:      192,
		CachePorts:      2,
		FrontEndDelay:   3,
		RedirectPenalty: 3,
		FetchQueue:      16,
		MulLatency:      3,
	}
}

// Validate rejects a geometry that can never commit an instruction: a core
// with no fetch, dispatch or commit slot, no ROB entry, no fetch-queue entry
// or no cache port would spin to the cycle bound instead of failing. It
// also rejects a width above the ROB size: no cycle can dispatch or commit
// more instructions than the ROB holds, so such a core runs exactly as the
// ROB-wide one, while its fetch queue (4×width under WithWidth) can exhaust
// host memory.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"Width", c.Width},
		{"ROBEntries", c.ROBEntries},
		{"FetchQueue", c.FetchQueue},
		{"CachePorts", c.CachePorts},
	} {
		if f.v < 1 {
			return fmt.Errorf("cpu: %s must be at least 1, got %d", f.name, f.v)
		}
	}
	if c.Width > c.ROBEntries {
		return fmt.Errorf("cpu: Width %d exceeds ROBEntries %d", c.Width, c.ROBEntries)
	}
	return nil
}

// WithWidth returns the configuration adjusted for an n-wide pipeline, used
// by the Figure 14 sensitivity study. Cache ports scale with width as wider
// machines need more load bandwidth.
func (c Config) WithWidth(n int) Config {
	c.Width = n
	c.FetchQueue = 4 * n
	c.CachePorts = max(1, n/2)
	return c
}

// Stats aggregates one core's execution counters.
type Stats struct {
	Cycles    uint64
	Committed uint64
	Fetched   uint64
	Squashed  uint64 // instructions flushed on mispredictions

	BranchesCommitted uint64
	BranchMispredicts uint64

	LoadsCommitted  uint64
	StoresCommitted uint64
	LoadL1Hits      uint64
	LoadL1Misses    uint64
	StoreForwards   uint64
	WrongPathLoads  uint64

	PrefetchDropped uint64 // requests dropped as already resident; the L1D counts the rest as PrefetchFills

	// CPI is the cycle-attribution stack (Config.CPIStack); with attribution
	// enabled, CPI.Total() == Cycles exactly. Living inside Stats, it is
	// zeroed by the window reset (Stats{}) with every other counter.
	CPI obs.CPIStack
}

// IPC returns committed instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// BranchMissRate returns committed-branch mispredictions per committed
// branch.
func (s Stats) BranchMissRate() float64 {
	if s.BranchesCommitted == 0 {
		return 0
	}
	return float64(s.BranchMispredicts) / float64(s.BranchesCommitted)
}

// RegisterObs exports the core's execution counters into the metrics
// registry under prefix (e.g. "c0.cpu."). Collectors read the live Stats
// struct, so the per-cycle kernel keeps its plain field increments.
func (c *Core) RegisterObs(reg *obs.Registry, prefix string) {
	reg.Func(prefix+"cycles", func() uint64 { return c.Stats.Cycles })
	reg.Func(prefix+"committed", func() uint64 { return c.Stats.Committed })
	reg.Func(prefix+"fetched", func() uint64 { return c.Stats.Fetched })
	reg.Func(prefix+"squashed", func() uint64 { return c.Stats.Squashed })
	reg.Func(prefix+"branches", func() uint64 { return c.Stats.BranchesCommitted })
	reg.Func(prefix+"branch_mispredicts", func() uint64 { return c.Stats.BranchMispredicts })
	reg.Func(prefix+"loads", func() uint64 { return c.Stats.LoadsCommitted })
	reg.Func(prefix+"stores", func() uint64 { return c.Stats.StoresCommitted })
	reg.Func(prefix+"load_l1_hits", func() uint64 { return c.Stats.LoadL1Hits })
	reg.Func(prefix+"load_l1_misses", func() uint64 { return c.Stats.LoadL1Misses })
	reg.Func(prefix+"store_forwards", func() uint64 { return c.Stats.StoreForwards })
	reg.Func(prefix+"wrong_path_loads", func() uint64 { return c.Stats.WrongPathLoads })
	reg.Func(prefix+"pf_requests_dropped", func() uint64 { return c.Stats.PrefetchDropped })
	if c.cfg.CPIStack {
		for b := obs.CPIBucket(0); b < obs.NumCPIBuckets; b++ {
			b := b
			reg.Func(prefix+"cpi."+obs.CPIBucketNames[b], func() uint64 { return c.Stats.CPI[b] })
		}
	}
}
