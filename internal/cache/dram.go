package cache

import (
	"fmt"

	"repro/internal/obs"
)

// DRAM is the off-chip memory model: a fixed access latency plus a channel
// bandwidth gate. Every block transfer (demand fill, prefetch fill, or
// writeback) occupies a channel for CyclesPerFill cycles; transfers queue
// behind one another, so prefetch-heavy or multiprogrammed runs feel the
// 12.8 GB/s memory-controller limit the paper imposes (§V-A).
//
// With a 3.2 GHz core clock, 12.8 GB/s is 64 bytes per 16 cycles, the
// default.
//
// Block addresses interleave across a power-of-two number of independent
// channels, each of which may also cap how many transfers are in flight at
// once (command queued until the earliest-completing slot drains). The
// Table II controller is the one-channel case with unbounded in-flight
// transfers; SetChannels configures a scale-out controller. Requests are
// granted FCFS in arrival order; arrival order itself is made deterministic
// by the simulator, which ticks cores in index order within a cycle.
type DRAM struct {
	Latency       uint64 //bfetch:noreset configuration
	CyclesPerFill uint64 //bfetch:noreset configuration

	chans       []dramChannel
	chanMask    uint64 //bfetch:noreset configuration
	maxInflight int    //bfetch:noreset configuration

	// Traffic accounting (aggregated across channels).
	DemandFills   uint64
	PrefetchFills uint64
	Writebacks    uint64
	StallCycles   uint64 // cycles requests spent queued behind a channel
}

// dramChannel is one independent channel's occupancy state and counters.
type dramChannel struct {
	nextFree uint64   // command/data bus free cycle
	slots    []uint64 // busy-until per in-flight transfer (len == maxInflight)

	transfers   uint64
	stallCycles uint64 // bus queueing delay absorbed by this channel
	slotCycles  uint64 // extra delay waiting for an in-flight slot
	busyCycles  uint64 // data-bus occupancy (transfers × CyclesPerFill)
}

// NewDRAM returns the Table II DRAM model: one channel, unbounded in-flight
// transfers.
func NewDRAM() *DRAM {
	return &DRAM{Latency: 200, CyclesPerFill: 16, chans: make([]dramChannel, 1)}
}

// SetChannels reconfigures the controller with `channels` address-interleaved
// channels (power of two) each capped at maxInflight concurrent transfers
// (0 = unbounded). channels <= 1 restores the Table II single channel with
// unbounded in-flight transfers.
func (d *DRAM) SetChannels(channels, maxInflight int) error {
	if channels <= 1 {
		channels, maxInflight = 1, 0
	} else if channels&(channels-1) != 0 {
		return fmt.Errorf("cache: DRAM channels must be a power of two, got %d", channels)
	}
	d.chans = make([]dramChannel, channels)
	d.chanMask = uint64(channels - 1)
	d.maxInflight = maxInflight
	if maxInflight > 0 {
		for i := range d.chans {
			d.chans[i].slots = make([]uint64, maxInflight)
		}
	}
	return nil
}

// Access implements Level.
//
//bfetch:hotpath
func (d *DRAM) Access(req Request, now uint64) uint64 {
	start := now
	c := &d.chans[req.BlockAddr&d.chanMask]
	if c.nextFree > start {
		c.stallCycles += c.nextFree - start
		d.StallCycles += c.nextFree - start
		if req.Class != nil {
			req.Class.ChanQ += c.nextFree - start
		}
		start = c.nextFree
	}
	if d.maxInflight > 0 {
		// Claim the earliest-draining in-flight slot; if all are busy past
		// start, the transfer waits for one to complete.
		slot := 0
		for i := 1; i < len(c.slots); i++ {
			if c.slots[i] < c.slots[slot] {
				slot = i
			}
		}
		if c.slots[slot] > start {
			c.slotCycles += c.slots[slot] - start
			d.StallCycles += c.slots[slot] - start
			if req.Class != nil {
				req.Class.ChanQ += c.slots[slot] - start
			}
			start = c.slots[slot]
		}
		if req.Kind == Write {
			c.slots[slot] = start + d.CyclesPerFill
		} else {
			c.slots[slot] = start + d.Latency
		}
	}
	c.nextFree = start + d.CyclesPerFill
	c.transfers++
	c.busyCycles += d.CyclesPerFill
	switch req.Kind {
	case PrefetchFill:
		d.PrefetchFills++
	case Write:
		d.Writebacks++
		// Writebacks are posted: they consume bandwidth but nothing waits
		// on them.
		return start
	default:
		d.DemandFills++
		if req.Class != nil {
			req.Class.Level = LoadLevelDRAM
		}
	}
	return start + d.Latency
}

// Transfers returns the total block transfers the controller carried.
func (d *DRAM) Transfers() uint64 { return d.DemandFills + d.PrefetchFills + d.Writebacks }

// ResetStats zeroes the traffic counters and channel occupancy at a
// measurement-window boundary. The clock is monotonic across the boundary,
// so clearing occupancy declares the bus idle at window start — the same
// convention the caches use for block readyAt merging.
func (d *DRAM) ResetStats() {
	for i := range d.chans {
		c := &d.chans[i]
		c.nextFree = 0
		for j := range c.slots {
			c.slots[j] = 0
		}
		c.transfers, c.stallCycles, c.slotCycles, c.busyCycles = 0, 0, 0, 0
	}
	d.DemandFills = 0
	d.PrefetchFills = 0
	d.Writebacks = 0
	d.StallCycles = 0
}

// RegisterObs exports the controller's traffic counters into the metrics
// registry under prefix (normally "dram."), plus per-channel occupancy and
// queueing-delay series when two or more channels are configured (one
// channel's series would repeat the aggregate).
func (d *DRAM) RegisterObs(reg *obs.Registry, prefix string) {
	reg.Func(prefix+"demand_fills", func() uint64 { return d.DemandFills })
	reg.Func(prefix+"prefetch_fills", func() uint64 { return d.PrefetchFills })
	reg.Func(prefix+"writebacks", func() uint64 { return d.Writebacks })
	reg.Func(prefix+"stall_cycles", func() uint64 { return d.StallCycles })
	if len(d.chans) < 2 {
		return
	}
	for i := range d.chans {
		c := &d.chans[i]
		p := fmt.Sprintf("%sch%d.", prefix, i)
		reg.Func(p+"transfers", func() uint64 { return c.transfers })
		reg.Func(p+"stall_cycles", func() uint64 { return c.stallCycles })
		reg.Func(p+"slot_cycles", func() uint64 { return c.slotCycles })
		reg.Func(p+"busy_cycles", func() uint64 { return c.busyCycles })
	}
}

// HierarchyConfig sizes one core's cache stack. The shared LLC and DRAM are
// created once per system and passed in.
type HierarchyConfig struct {
	L1Bytes   int
	L1Ways    int
	L1Latency uint64
	L2Bytes   int
	L2Ways    int
	L2Latency uint64
}

// DefaultHierarchyConfig returns the Table II per-core configuration:
// 64 KB 8-way 2-cycle L1D, 256 KB 8-way 10-cycle L2.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1Bytes: 64 << 10, L1Ways: 8, L1Latency: 2,
		L2Bytes: 256 << 10, L2Ways: 8, L2Latency: 10,
	}
}

// Hierarchy is one core's private cache stack in front of the shared levels.
type Hierarchy struct {
	L1D *Cache
	L2  *Cache
	// ASID tags every address so multiprogrammed address spaces do not
	// alias in the shared LLC.
	ASID uint64
}

// levels returns the L1D and L2 cache configurations.
func (c HierarchyConfig) levels() (l1, l2 Config) {
	return Config{Name: "L1D", Bytes: c.L1Bytes, Ways: c.L1Ways, Latency: c.L1Latency},
		Config{Name: "L2", Bytes: c.L2Bytes, Ways: c.L2Ways, Latency: c.L2Latency}
}

// Validate reports an L1D or L2 geometry New cannot build.
func (c HierarchyConfig) Validate() error {
	l1, l2 := c.levels()
	if err := l1.Validate(); err != nil {
		return err
	}
	return l2.Validate()
}

// NewHierarchy builds a private L1D+L2 in front of the shared LLC. The L1D,
// where prefetches fill, gets the pollution victim table.
func NewHierarchy(cfg HierarchyConfig, shared Level, asid int) *Hierarchy {
	l1cfg, l2cfg := cfg.levels()
	l2 := New(l2cfg, shared)
	l1 := New(l1cfg, l2)
	l1.victims = make([]uint64, 1<<victimBits)
	return &Hierarchy{L1D: l1, L2: l2, ASID: uint64(asid)}
}

// extend tags a virtual byte address with the hierarchy's address-space ID.
// Workload addresses stay far below 2^48, so the tag bits are free.
//
//bfetch:hotpath
func (h *Hierarchy) extend(addr uint64) uint64 {
	return (addr >> BlockBits) | (h.ASID << 50)
}

// Load issues a demand read for the block containing addr, returning its
// completion cycle and whether it hit in the L1D. A non-nil cl (a reused
// per-ROB-entry record, zeroed by the caller) is annotated with the serving
// level and queue waits as the request walks the hierarchy; nil means no
// CPI attribution.
//
//bfetch:hotpath
func (h *Hierarchy) Load(addr uint64, now uint64, cl *LoadClass) (uint64, bool) {
	ba := h.extend(addr)
	hit := h.L1D.Perfect || h.L1D.Contains(ba)
	return h.L1D.Access(Request{BlockAddr: ba, Kind: Read, Class: cl}, now), hit
}

// Store issues a demand write (write-allocate) and returns its completion
// cycle; the core treats stores as posted at commit.
//
//bfetch:hotpath
func (h *Hierarchy) Store(addr uint64, now uint64) uint64 {
	return h.L1D.Access(Request{BlockAddr: h.extend(addr), Kind: Write}, now)
}

// Prefetch installs the block containing addr on behalf of loadPC. It
// returns false if the block was already present in the L1D (the prefetch
// was redundant and is dropped without touching lower levels).
//
//bfetch:hotpath
func (h *Hierarchy) Prefetch(addr uint64, loadPC uint64, now uint64) bool {
	ba := h.extend(addr)
	if h.L1D.Contains(ba) {
		return false
	}
	h.L1D.Access(Request{BlockAddr: ba, Kind: PrefetchFill, LoadPC: loadPC}, now)
	return true
}

// InL1 reports whether addr's block is resident in the L1D.
func (h *Hierarchy) InL1(addr uint64) bool { return h.L1D.Contains(h.extend(addr)) }
