// Package cache models the CMP memory hierarchy: set-associative write-back
// caches with LRU replacement, per-block prefetch metadata (for the paper's
// useful/useless accounting and B-Fetch's per-load filter feedback), and a
// functional-with-latency timing model.
//
// Prefetch lifecycle. Each cache's Stats counts every prefetch fill once,
// from issue to its terminal transition:
//
//	issued ──► first demand touch, fill complete ─────────► useful (timely)
//	       ──► first demand touch, fill still in flight ──► useful (late)
//	       ──► evicted untouched ─────────────────────────► useless
//
// and, on the L1D NewHierarchy builds, a demand re-miss of a block that a
// prefetch fill evicted counts as pollution. Stats.Lifecycle derives the
// report breakdown (obs.LifecycleStats) from those counts.
//
// Timing model. An access walks the hierarchy at the cycle it issues and
// returns its completion cycle; blocks are installed immediately but carry a
// readyAt timestamp. A later access that finds a block with readyAt still in
// the future completes at readyAt — the same merging behaviour an MSHR file
// provides, at a fraction of the complexity. This preserves what a
// prefetching study needs: memory-level parallelism, pollution (installs
// evict victims), prefetch timeliness (a late prefetch still shortens the
// demand miss), and DRAM bandwidth contention (see Package-level DRAM).
package cache

import (
	"fmt"

	"repro/internal/obs"
)

// BlockBits is log2 of the cache block size; blocks are 64 bytes throughout,
// matching the paper.
const BlockBits = 6

// BlockBytes is the cache block size.
const BlockBytes = 1 << BlockBits

// AccessKind distinguishes traffic classes.
type AccessKind uint8

const (
	Read AccessKind = iota
	Write
	PrefetchFill
)

// Request is one hierarchy access. BlockAddr is the block-granular address
// (already ASID-extended by the caller for multiprogrammed runs).
type Request struct {
	BlockAddr uint64
	Kind      AccessKind
	// LoadPC is, for PrefetchFill requests, the PC of the load on whose
	// behalf the prefetcher issued the request; it flows into the block
	// metadata so eviction/use feedback can reach the per-load filter.
	LoadPC uint64
	// Class, when non-nil on a demand Read, collects CPI attribution for
	// the load as the request walks the hierarchy (see loadclass.go). It
	// rides down miss recursion into the shared levels.
	Class *LoadClass
}

// Level is anything that can service a block request: a next-level cache or
// the DRAM model.
type Level interface {
	Access(req Request, now uint64) (doneAt uint64)
}

// FeedbackHandler receives prefetch-quality feedback from the L1D: a
// prefetched block was used by a demand access, or was evicted untouched.
// B-Fetch's per-load filter and the Figure 11 accounting both hang off this.
type FeedbackHandler interface {
	PrefetchUseful(loadPC uint64, blockAddr uint64)
	PrefetchUseless(loadPC uint64, blockAddr uint64)
}

// Bits of a way's Cache.flags entry.
const (
	flagDirty      uint8 = 1 << iota
	flagPrefetched       // filled by a prefetch and not yet touched by demand
	flagPfWasPf          // filled by a prefetch at some point (for late-prefetch attribution)
)

// validBit marks a tag-array entry as holding a block. Block addresses
// (byte address >> BlockBits, ASID in bits 50 and up) never reach bit 63,
// so address 0 is stored as validBit and an empty way as 0.
const validBit = uint64(1) << 63

// Stats counts one cache's traffic.
type Stats struct {
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Writes    uint64
	Evictions uint64

	PrefetchFills   uint64 // prefetch fills installed at this level
	PrefetchUseful  uint64 // prefetched blocks later touched by demand
	PrefetchLate    uint64 // of those, first touches that waited on the in-flight fill
	PrefetchUseless uint64 // prefetched blocks evicted untouched
	PrefetchCarried uint64 // prefetched blocks untouched at the last ResetStats
	Polluting       uint64 // demand re-misses of blocks a prefetch fill evicted (L1D only)
	MergedInFlight  uint64 // accesses that hit a block still being filled
}

// Lifecycle derives the window's prefetch lifecycle breakdown. Blocks
// carried across the last reset count as issued in this window, so the
// useful and useless events they generate later keep useful+useless <=
// issued, which the run-report validator enforces.
func (s Stats) Lifecycle() obs.LifecycleStats {
	return obs.LifecycleStats{
		Issued:         s.PrefetchFills + s.PrefetchCarried,
		UsefulTimely:   s.PrefetchUseful - s.PrefetchLate,
		UsefulLate:     s.PrefetchLate,
		UselessEvicted: s.PrefetchUseless,
		Polluting:      s.Polluting,
		DemandMisses:   s.Misses - s.PrefetchFills,
	}
}

// MissRate returns misses per access.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Config sizes one cache.
type Config struct {
	Name    string
	Bytes   int    // total capacity
	Ways    int    // associativity
	Latency uint64 // access latency in cycles

	// Banks > 1 slices the cache into address-interleaved banks (power of
	// two; bank = low block-address bits) whose single read/write port
	// serializes same-cycle accesses: each access holds the bank for
	// BankBusy cycles, and later arrivals queue behind it. Used on the
	// shared LLC for scale-out configurations; Banks <= 1 (the default)
	// is the original unbanked timing.
	Banks    int
	BankBusy uint64
	// MSHRs caps outstanding misses per bank (0 = unbounded): a miss that
	// finds every MSHR busy waits for the earliest-completing fill to
	// drain. Only meaningful with Banks > 1.
	MSHRs int
}

// llcBank is one bank's port/MSHR occupancy state and counters.
type llcBank struct {
	nextFree uint64   // port free cycle
	mshr     []uint64 // fill-completion cycle per outstanding miss

	accesses    uint64
	queueCycles uint64 // cycles accesses waited for the bank port
	busyCycles  uint64 // port occupancy (accesses × BankBusy)
	mshrStalls  uint64 // misses that found all MSHRs busy
	mshrCycles  uint64 // cycles those misses waited for a free MSHR
}

// Cache is one level of the hierarchy.
type Cache struct {
	cfg  Config //bfetch:noreset configuration
	sets int    //bfetch:noreset configuration
	ways int    //bfetch:noreset configuration

	// Way i's state is entry i of the arrays below, one array per field.
	// tags[i] is blockAddr|validBit for the block the way holds, 0 when it
	// is empty, and the only record of which block that is; lastUse[i] is
	// its LRU stamp, readyAt[i] the cycle its fill completes, flags[i] its
	// flag* bits. loadPC[i] is the PC of the load a prefetch fill was
	// issued for; it is allocated by SetFeedback, since only a feedback
	// handler reads it. A way costs 25 bytes (33 with loadPC); a lookup
	// scans 128 B of tags and a victim choice 128 B of lastUse per 16-way
	// set. Cache contents persist across the window boundary.
	tags    []uint64 //bfetch:noreset cache contents
	lastUse []uint64 //bfetch:noreset cache contents
	readyAt []uint64 //bfetch:noreset cache contents
	flags   []uint8  //bfetch:noreset cache contents
	loadPC  []uint64 //bfetch:noreset cache contents; nil without a feedback handler

	next  Level //bfetch:noreset wiring
	Stats Stats

	feedback FeedbackHandler //bfetch:noreset wiring

	// victims is the pollution detector, allocated only for the L1D that
	// NewHierarchy builds: a prefetch fill that evicts a valid block records
	// the victim's tag (blockAddr|validBit, never 0) at victimHash(blockAddr),
	// and a later demand miss that matches consumes the entry and counts as
	// Polluting. Like the cache contents it mirrors, it survives
	// ResetStats, so a victim evicted during warmup whose re-miss lands in
	// the measurement window is still attributed.
	victims []uint64 //bfetch:noreset mirrors cache contents, which a stats reset keeps

	// Perfect, when set on a first-level data cache, makes every demand
	// read complete at the hit latency: the paper's Perfect L1-D prefetcher
	// upper bound (Figure 1).
	Perfect bool //bfetch:noreset configuration

	banks    []llcBank
	bankMask uint64 //bfetch:noreset configuration

	// classLevel is the attribution level a hit at this cache stamps into a
	// classified request (see loadclass.go); inferred from the name.
	classLevel uint8 //bfetch:noreset configuration
}

// Validate reports a geometry New cannot build: ways that do not divide
// the blocks, or a set or bank count that is not a power of two.
func (cfg Config) Validate() error {
	blocks := cfg.Bytes / BlockBytes
	if cfg.Ways <= 0 || blocks%cfg.Ways != 0 {
		return fmt.Errorf("cache %s: %d blocks not divisible into %d ways", cfg.Name, blocks, cfg.Ways)
	}
	if sets := blocks / cfg.Ways; sets < 1 || sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: %d sets is not a power of two", cfg.Name, sets)
	}
	if cfg.Banks > 1 && cfg.Banks&(cfg.Banks-1) != 0 {
		return fmt.Errorf("cache %s: %d banks is not a power of two", cfg.Name, cfg.Banks)
	}
	return nil
}

// New builds a cache in front of next. It panics on a configuration
// Validate rejects.
func New(cfg Config, next Level) *Cache {
	if next == nil {
		panic("cache: nil next level")
	}
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	sets := cfg.Bytes / BlockBytes / cfg.Ways
	n := sets * cfg.Ways
	c := &Cache{
		cfg:        cfg,
		sets:       sets,
		ways:       cfg.Ways,
		tags:       make([]uint64, n),
		lastUse:    make([]uint64, n),
		readyAt:    make([]uint64, n),
		flags:      make([]uint8, n),
		next:       next,
		classLevel: classLevelOf(cfg.Name),
	}
	if cfg.Banks > 1 {
		c.banks = make([]llcBank, cfg.Banks)
		c.bankMask = uint64(cfg.Banks - 1)
		if cfg.MSHRs > 0 {
			for i := range c.banks {
				c.banks[i].mshr = make([]uint64, cfg.MSHRs)
			}
		}
	}
	return c
}

// ResetStats zeroes the traffic counters and bank occupancy at a
// measurement-window boundary; cache contents are deliberately kept warm.
// The still untouched prefetched blocks are carried into the new window.
func (c *Cache) ResetStats() {
	c.Stats = Stats{PrefetchCarried: c.PendingPrefetched()}
	for i := range c.banks {
		b := &c.banks[i]
		b.nextFree = 0
		for j := range b.mshr {
			b.mshr[j] = 0
		}
		b.accesses, b.queueCycles, b.busyCycles = 0, 0, 0
		b.mshrStalls, b.mshrCycles = 0, 0
	}
}

// SetFeedback registers the prefetch feedback sink (normally the core's
// prefetcher adapter); only meaningful on the L1D. A non-nil handler
// allocates the per-way load-PC array the feedback reports, 8 bytes per
// way, so it must be called before the cache's first access, as
// sim.assemble does: a prefetch filled earlier would report load PC 0.
func (c *Cache) SetFeedback(h FeedbackHandler) {
	c.feedback = h
	if h != nil && c.loadPC == nil {
		c.loadPC = make([]uint64, len(c.tags))
	}
}

// PendingPrefetched counts resident prefetch-filled blocks not yet touched
// by demand. ResetStats records the count as the new window's
// PrefetchCarried. Cold path: called only at reset, never per access.
func (c *Cache) PendingPrefetched() uint64 {
	var n uint64
	for i, t := range c.tags {
		if t != 0 && c.flags[i]&flagPrefetched != 0 {
			n++
		}
	}
	return n
}

// Name returns the configured name.
func (c *Cache) Name() string { return c.cfg.Name }

// Sets and Ways expose geometry (used by storage accounting and tests).
func (c *Cache) Sets() int { return c.sets }
func (c *Cache) Ways() int { return c.ways }

// Blocks returns the total block count (used for the paper's "additional
// cache bits" overhead accounting).
func (c *Cache) Blocks() int { return c.sets * c.ways }

// setBase returns the index of blockAddr's set's first way.
//
//bfetch:hotpath
func (c *Cache) setBase(blockAddr uint64) int {
	return int(blockAddr&uint64(c.sets-1)) * c.ways
}

// way returns the index of the way holding blockAddr, or -1.
//
//bfetch:hotpath
func (c *Cache) way(blockAddr uint64) int {
	s := c.setBase(blockAddr)
	want := blockAddr | validBit
	for i, t := range c.tags[s : s+c.ways] {
		if t == want {
			return s + i
		}
	}
	return -1
}

// Contains reports whether the block is present (used by prefetch-queue
// dedup and tests); it does not touch LRU state.
//
//bfetch:hotpath
func (c *Cache) Contains(blockAddr uint64) bool { return c.way(blockAddr) >= 0 }

// victim picks the way of blockAddr's set to replace: the first empty way,
// else the lowest-indexed way with the oldest lastUse. It evicts the way's
// current block, retags it with blockAddr, stamps it used at now, ready at
// readyAt and with flags, and returns its index. An install with
// flagPrefetched is a prefetch fill, whose eviction arms the pollution
// detector for the displaced block.
//
//bfetch:hotpath
func (c *Cache) victim(blockAddr, now, readyAt uint64, flags uint8) int {
	s := c.setBase(blockAddr)
	tags := c.tags[s : s+c.ways]
	lastUse := c.lastUse[s : s+len(tags)]
	v, oldest := 0, lastUse[0]
	for i, t := range tags {
		if t == 0 {
			v = i
			break
		}
		if lastUse[i] < oldest {
			v, oldest = i, lastUse[i]
		}
	}
	v += s
	if old := c.tags[v]; old != 0 {
		if flags&flagPrefetched != 0 && c.victims != nil {
			c.victims[victimHash(old&^validBit)] = old
		}
		c.evict(v, old&^validBit, now)
	}
	c.tags[v] = blockAddr | validBit
	c.lastUse[v] = now
	c.readyAt[v] = readyAt
	c.flags[v] = flags
	return v
}

// evict retires the block at blockAddr held in way i; the caller retags or
// clears the way.
//
//bfetch:hotpath
func (c *Cache) evict(i int, blockAddr uint64, now uint64) {
	c.Stats.Evictions++
	f := c.flags[i]
	if f&flagPrefetched != 0 {
		c.Stats.PrefetchUseless++
		if c.feedback != nil {
			c.feedback.PrefetchUseless(c.loadPC[i], blockAddr)
		}
	}
	if f&flagDirty != 0 {
		c.writeback(Request{BlockAddr: blockAddr, Kind: Write}, now)
	}
}

// writeback pushes a dirty block to the next level, off the critical path.
//
//bfetch:hotpath
func (c *Cache) writeback(req Request, now uint64) {
	if nc, ok := c.next.(*Cache); ok {
		nc.WritebackInstall(req, now)
		return
	}
	// DRAM: posted write, charge bandwidth only.
	c.next.Access(req, now)
}

// WritebackInstall absorbs a dirty block arriving from an upper level:
// present → mark dirty, absent → allocate (non-inclusive hierarchy). On a
// banked cache the writeback occupies the bank port like any other access.
//
//bfetch:hotpath
func (c *Cache) WritebackInstall(req Request, now uint64) {
	if c.banks != nil {
		now, _ = c.bankArb(req.BlockAddr, now)
	}
	if i := c.way(req.BlockAddr); i >= 0 {
		c.flags[i] |= flagDirty
		return
	}
	c.victim(req.BlockAddr, now, now, flagDirty)
}

// bankArb claims blockAddr's bank port at or after now, returning the grant
// cycle. Within a cycle, grant order is arrival order — which the simulator
// makes deterministic by ticking cores in index order.
//
//bfetch:hotpath
func (c *Cache) bankArb(blockAddr, now uint64) (uint64, *llcBank) {
	b := &c.banks[blockAddr&c.bankMask]
	b.accesses++
	if b.nextFree > now {
		b.queueCycles += b.nextFree - now
		now = b.nextFree
	}
	b.nextFree = now + c.cfg.BankBusy
	b.busyCycles += c.cfg.BankBusy
	return now, b
}

// Access services a request, returning its completion cycle.
//
//bfetch:hotpath
func (c *Cache) Access(req Request, now uint64) uint64 {
	c.Stats.Accesses++
	if req.Kind == Write {
		c.Stats.Writes++
	}

	if c.Perfect && req.Kind == Read {
		c.Stats.Hits++
		if req.Class != nil {
			req.Class.Level = c.classLevel
		}
		return now + c.cfg.Latency
	}

	var bank *llcBank
	if c.banks != nil {
		arrived := now
		now, bank = c.bankArb(req.BlockAddr, now)
		if req.Class != nil {
			req.Class.BankQ += now - arrived
		}
	}

	if i := c.way(req.BlockAddr); i >= 0 {
		c.Stats.Hits++
		c.lastUse[i] = now
		if req.Kind == Write {
			c.flags[i] |= flagDirty
		}
		f, readyAt := c.flags[i], c.readyAt[i]
		done := now + c.cfg.Latency
		if req.Kind != PrefetchFill && f&flagPrefetched != 0 {
			// First demand touch of a prefetched block: it was useful — and
			// late if the demand still had to wait on the in-flight fill.
			c.flags[i] &^= flagPrefetched
			c.Stats.PrefetchUseful++
			if readyAt > done {
				c.Stats.PrefetchLate++
			}
			if c.feedback != nil {
				c.feedback.PrefetchUseful(c.loadPC[i], req.BlockAddr)
			}
		}
		if req.Class != nil {
			req.Class.Level = c.classLevel
			if f&flagPfWasPf != 0 && readyAt > done {
				// The demand merged with an in-flight prefetch fill: the
				// prefetch was late, but it partially hid the miss.
				req.Class.PFLate = true
			}
		}
		if readyAt > done {
			// Block still in flight: merge with the outstanding fill.
			c.Stats.MergedInFlight++
			done = readyAt
		}
		return done
	}

	// Miss: fetch from below, install here. A store miss fetches the block
	// like a read (write-allocate / read-for-ownership): the Write kind is
	// reserved for writebacks, which take the off-critical-path route in
	// writeback().
	c.Stats.Misses++
	fill := req
	if fill.Kind == Write {
		fill.Kind = Read
	}
	if req.Kind == PrefetchFill {
		c.Stats.PrefetchFills++
	} else if c.victims != nil {
		if h := victimHash(req.BlockAddr); c.victims[h] == req.BlockAddr|validBit {
			c.victims[h] = 0
			c.Stats.Polluting++
		}
	}
	if bank != nil && bank.mshr != nil {
		// Claim the earliest-draining MSHR; a miss that finds every slot
		// busy past now waits for one to free before its fill can issue.
		slot := 0
		for i := 1; i < len(bank.mshr); i++ {
			if bank.mshr[i] < bank.mshr[slot] {
				slot = i
			}
		}
		if bank.mshr[slot] > now {
			bank.mshrStalls++
			bank.mshrCycles += bank.mshr[slot] - now
			if req.Class != nil {
				req.Class.MSHRQ += bank.mshr[slot] - now
			}
			now = bank.mshr[slot]
		}
		fillDone := c.next.Access(fill, now+c.cfg.Latency)
		bank.mshr[slot] = fillDone
		return c.install(req, now, fillDone)
	}
	fillDone := c.next.Access(fill, now+c.cfg.Latency)
	return c.install(req, now, fillDone)
}

// install places the missed block, ready when its fill completes.
//
//bfetch:hotpath
func (c *Cache) install(req Request, now, fillDone uint64) uint64 {
	var flags uint8
	switch req.Kind {
	case Write:
		flags = flagDirty
	case PrefetchFill:
		flags = flagPrefetched | flagPfWasPf
	}
	v := c.victim(req.BlockAddr, now, fillDone, flags)
	if req.Kind == PrefetchFill && c.loadPC != nil {
		c.loadPC[v] = req.LoadPC
	}
	return fillDone
}

// RegisterObs exports the cache's counters into the metrics registry under
// prefix (e.g. "c0.l1d."). Collectors read the live Stats struct, so the
// hot path keeps its plain field increments.
func (c *Cache) RegisterObs(reg *obs.Registry, prefix string) {
	reg.Func(prefix+"accesses", func() uint64 { return c.Stats.Accesses })
	reg.Func(prefix+"hits", func() uint64 { return c.Stats.Hits })
	reg.Func(prefix+"misses", func() uint64 { return c.Stats.Misses })
	reg.Func(prefix+"writes", func() uint64 { return c.Stats.Writes })
	reg.Func(prefix+"evictions", func() uint64 { return c.Stats.Evictions })
	reg.Func(prefix+"pf_fills", func() uint64 { return c.Stats.PrefetchFills })
	reg.Func(prefix+"pf_useful", func() uint64 { return c.Stats.PrefetchUseful })
	reg.Func(prefix+"pf_useless", func() uint64 { return c.Stats.PrefetchUseless })
	reg.Func(prefix+"merged_inflight", func() uint64 { return c.Stats.MergedInFlight })
	if c.victims != nil {
		reg.Func(prefix+"pf_late", func() uint64 { return c.Stats.PrefetchLate })
		reg.Func(prefix+"pf_carried", func() uint64 { return c.Stats.PrefetchCarried })
		reg.Func(prefix+"polluting", func() uint64 { return c.Stats.Polluting })
	}
	for i := range c.banks {
		b := &c.banks[i]
		p := fmt.Sprintf("%sb%d.", prefix, i)
		reg.Func(p+"accesses", func() uint64 { return b.accesses })
		reg.Func(p+"queue_cycles", func() uint64 { return b.queueCycles })
		reg.Func(p+"busy_cycles", func() uint64 { return b.busyCycles })
		reg.Func(p+"mshr_stalls", func() uint64 { return b.mshrStalls })
		reg.Func(p+"mshr_cycles", func() uint64 { return b.mshrCycles })
	}
}

// victimBits sizes the pollution victim table: 2^victimBits entries.
const victimBits = 10

// victimHash spreads block addresses over the victim table (Fibonacci
// hashing).
//
//bfetch:hotpath
func victimHash(blockAddr uint64) uint64 {
	return (blockAddr * 0x9E3779B97F4A7C15) >> (64 - victimBits)
}

// Invalidate removes a block if present, without writeback (test support).
func (c *Cache) Invalidate(blockAddr uint64) {
	if i := c.way(blockAddr); i >= 0 {
		c.tags[i] = 0
	}
}
