// Package sms implements Spatial Memory Streaming (Somogyi, Wenisch,
// Ailamaki, Falsafi, Moshovos, ISCA 2006), the "best-of-class light-weight
// prefetcher" B-Fetch compares against.
//
// SMS divides memory into fixed-size spatial regions. The first access to a
// region (the trigger) starts a generation: an Active Generation Table (AGT)
// entry accumulates a bit pattern of the blocks touched within the region.
// When the generation ends, the pattern is stored in a Pattern History Table
// (PHT) indexed by the trigger's (PC, region offset). The next time the same
// trigger recurs, the stored pattern is replayed as prefetches for the whole
// region.
//
// Following the paper's practical configuration (§IV-C): 2 KB spatial
// regions, a 64-entry AGT and a 16K-entry PHT. The original filter table is
// omitted, as in the JILP 2011 follow-up the paper cites — accumulation
// handles filtering. Generations end on AGT replacement, the practical proxy
// for region eviction.
//
// The spatial side — region geometry, AGT and PHT — is the exported Spatial
// core, which STeMS runs on as well.
package sms

import (
	"fmt"
	"math/bits"

	"repro/internal/obs"
	"repro/internal/prefetch"
)

// Config sizes the prefetcher. Its three sizes are also the sizes of the
// Spatial core, which STeMS builds from its own configuration.
type Config struct {
	RegionBytes int // spatial region size (power of two, ≥ 128)
	AGTEntries  int
	PHTEntries  int // power of two, tagless direct-mapped
}

// Validate reports sizes New cannot build (see Check).
func (c Config) Validate() error { return c.Check("sms") }

// Check reports sizes NewSpatial cannot build, naming pkg in the error: a
// region that is not a power of two from 128 bytes to 4 KB (one pattern bit
// per 64-byte block), an empty AGT, or a PHT that is not a positive power of
// two.
func (c Config) Check(pkg string) error {
	if c.RegionBytes < 128 || c.RegionBytes > 64*64 || c.RegionBytes&(c.RegionBytes-1) != 0 {
		return fmt.Errorf("%s: region bytes %d is not a power of two in [128, 4096]", pkg, c.RegionBytes)
	}
	if c.AGTEntries <= 0 {
		return fmt.Errorf("%s: AGT entries %d is not positive", pkg, c.AGTEntries)
	}
	if c.PHTEntries <= 0 || c.PHTEntries&(c.PHTEntries-1) != 0 {
		return fmt.Errorf("%s: PHT entries %d is not a positive power of two", pkg, c.PHTEntries)
	}
	return nil
}

// DefaultConfig is the paper's practical SMS configuration.
func DefaultConfig() Config {
	return Config{RegionBytes: 2048, AGTEntries: 64, PHTEntries: 16384}
}

type agtEntry struct {
	valid      bool
	regionTag  uint64
	triggerPC  uint64
	triggerOff int // block offset of the trigger within the region
	pattern    uint64
	lastUse    uint64
}

// Spatial is SMS's spatial engine: memory split into regions, an AGT whose
// live generations accumulate the blocks touched in their region, and a
// tagless PHT of the patterns closed generations leave behind, indexed by
// their trigger's (PC, region offset).
type Spatial struct {
	shift     uint       // log2 of the region size
	blocksPer int        // 64-byte blocks per region, one pattern bit each
	agt       []agtEntry // active generations
	pht       []uint64   // learned patterns
	clock     uint64     // AGT LRU clock, monotonic
}

// NewSpatial builds the spatial core; cfg must pass Check.
func NewSpatial(cfg Config) Spatial {
	return Spatial{
		shift:     uint(bits.TrailingZeros(uint(cfg.RegionBytes))),
		blocksPer: cfg.RegionBytes / 64,
		agt:       make([]agtEntry, cfg.AGTEntries),
		pht:       make([]uint64, cfg.PHTEntries),
	}
}

// Access records a demand access by pc to addr and locates it as a region
// and a block offset within it. Inside a live generation it only
// accumulates the block. Otherwise the access is a trigger: the LRU
// generation is trained into the PHT and recycled to start the new one.
func (s *Spatial) Access(pc, addr uint64) (region uint64, off int, trigger bool) {
	s.clock++
	region = addr >> s.shift
	off = int((addr >> 6) & uint64(s.blocksPer-1))

	// Accumulate into an active generation.
	for i := range s.agt {
		e := &s.agt[i]
		if e.valid && e.regionTag == region {
			e.pattern |= 1 << off
			e.lastUse = s.clock
			return region, off, false
		}
	}

	// Trigger: new generation. Recycle the LRU entry, training the PHT with
	// the generation it closes.
	victim := &s.agt[0]
	for i := range s.agt {
		if !s.agt[i].valid {
			victim = &s.agt[i]
			break
		}
		if s.agt[i].lastUse < victim.lastUse {
			victim = &s.agt[i]
		}
	}
	if victim.valid {
		s.train(victim)
	}
	*victim = agtEntry{
		valid: true, regionTag: region, triggerPC: pc,
		triggerOff: off, pattern: 1 << off, lastUse: s.clock,
	}
	return region, off, true
}

func (s *Spatial) phtIdx(pc uint64, off int) int {
	h := (pc >> 2) ^ (pc >> 13) ^ uint64(off)*0x9E37
	return int(h & uint64(len(s.pht)-1))
}

func (s *Spatial) train(e *agtEntry) {
	// Patterns with a single touched block predict nothing; storing them
	// only pollutes the PHT.
	if e.pattern&(e.pattern-1) == 0 {
		return
	}
	s.pht[s.phtIdx(e.triggerPC, e.triggerOff)] = e.pattern
}

// Pattern returns the PHT's pattern for a trigger by pc at block offset
// off, 0 if it holds none.
func (s *Spatial) Pattern(pc uint64, off int) uint64 { return s.pht[s.phtIdx(pc, off)] }

// PushBlocks queues one prefetch, attributed to pc, for every block of
// region set in pattern, lowest block first.
func (s *Spatial) PushBlocks(d *prefetch.Drain, region, pattern, pc uint64) {
	base := region << s.shift
	for ; pattern != 0; pattern &= pattern - 1 {
		d.Push(prefetch.Request{Addr: base + uint64(bits.TrailingZeros64(pattern)*64), LoadPC: pc})
	}
}

// OffBits is the width of a block offset within a region.
func (s *Spatial) OffBits() int { return int(s.shift) - 6 }

// StorageBits sizes the AGT and PHT: AGT entries hold a region tag (34
// bits), trigger PC (32), trigger offset and the pattern; the tagless PHT
// holds one pattern per entry.
func (s *Spatial) StorageBits() int {
	return len(s.agt)*(34+32+s.OffBits()+s.blocksPer) + len(s.pht)*s.blocksPer
}

// SMS is the prefetcher.
type SMS struct {
	prefetch.Drain
	sp Spatial //bfetch:noreset learned generations and patterns

	// Stats.
	Generations uint64
	PHTHits     uint64
}

// New builds an SMS prefetcher; it panics on a configuration Validate
// rejects.
func New(cfg Config) *SMS {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &SMS{Drain: prefetch.NewDrain(100, 2), sp: NewSpatial(cfg)}
}

func (s *SMS) Name() string { return "sms" }

// OnAccess accumulates patterns and replays stored ones on region triggers.
func (s *SMS) OnAccess(a prefetch.AccessInfo) {
	region, off, trigger := s.sp.Access(a.PC, a.Addr)
	if !trigger {
		return
	}
	s.Generations++

	// Replay the stored pattern for this trigger, if any.
	pattern := s.sp.Pattern(a.PC, off)
	if pattern == 0 {
		return
	}
	s.PHTHits++
	s.sp.PushBlocks(&s.Drain, region, pattern&^(1<<off), a.PC)
}

// ResetStats zeroes the measurement counters.
func (s *SMS) ResetStats() {
	s.Generations, s.PHTHits = 0, 0
	s.Drain.ResetStats()
}

// RegisterObs exports the engine's counters into the metrics registry.
func (s *SMS) RegisterObs(reg *obs.Registry, prefix string) {
	reg.Func(prefix+"generations", func() uint64 { return s.Generations })
	reg.Func(prefix+"pht_hits", func() uint64 { return s.PHTHits })
	s.Drain.RegisterObs(reg, prefix)
}

// StorageBits reports SMS hardware state: the spatial core and the queue.
func (s *SMS) StorageBits() int { return s.sp.StorageBits() + s.Drain.StorageBits() }
