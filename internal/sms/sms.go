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
package sms

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/prefetch"
)

// Config sizes the prefetcher.
type Config struct {
	RegionBytes int // spatial region size (power of two, ≥ 128)
	AGTEntries  int
	PHTEntries  int // power of two, tagless direct-mapped
}

// Validate reports sizes New cannot build: a region that is not a power of
// two from 128 bytes to 4 KB (one pattern bit per 64-byte block), an empty
// AGT, or a PHT that is not a positive power of two.
func (c Config) Validate() error {
	if c.RegionBytes < 128 || c.RegionBytes > 64*64 || c.RegionBytes&(c.RegionBytes-1) != 0 {
		return fmt.Errorf("sms: region bytes %d is not a power of two in [128, 4096]", c.RegionBytes)
	}
	if c.AGTEntries <= 0 {
		return fmt.Errorf("sms: AGT entries %d is not positive", c.AGTEntries)
	}
	if c.PHTEntries <= 0 || c.PHTEntries&(c.PHTEntries-1) != 0 {
		return fmt.Errorf("sms: PHT entries %d is not a positive power of two", c.PHTEntries)
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

// SMS is the prefetcher.
type SMS struct {
	prefetch.Base
	cfg         Config     //bfetch:noreset configuration
	regionShift uint       //bfetch:noreset configuration
	blocksPer   int        //bfetch:noreset configuration
	agt         []agtEntry //bfetch:noreset learned active generations
	pht         []uint64   //bfetch:noreset learned patterns
	queue       *prefetch.Queue
	clock       uint64 //bfetch:noreset internal LRU clock, monotonic

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
	shift := uint(0)
	for 1<<shift != cfg.RegionBytes {
		shift++
	}
	return &SMS{
		cfg:         cfg,
		regionShift: shift,
		blocksPer:   cfg.RegionBytes / 64,
		agt:         make([]agtEntry, cfg.AGTEntries),
		pht:         make([]uint64, cfg.PHTEntries),
		queue:       prefetch.NewQueue(100, 2),
	}
}

func (s *SMS) Name() string { return "sms" }

func (s *SMS) phtIdx(pc uint64, off int) int {
	h := (pc >> 2) ^ (pc >> 13) ^ uint64(off)*0x9E37
	return int(h & uint64(s.cfg.PHTEntries-1))
}

// OnAccess accumulates patterns and replays stored ones on region triggers.
func (s *SMS) OnAccess(a prefetch.AccessInfo) {
	s.clock++
	region := a.Addr >> s.regionShift
	off := int((a.Addr >> 6) & uint64(s.blocksPer-1))

	// Accumulate into an active generation.
	for i := range s.agt {
		e := &s.agt[i]
		if e.valid && e.regionTag == region {
			e.pattern |= 1 << off
			e.lastUse = s.clock
			return
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
		valid: true, regionTag: region, triggerPC: a.PC,
		triggerOff: off, pattern: 1 << off, lastUse: s.clock,
	}
	s.Generations++

	// Replay the stored pattern for this trigger, if any.
	pattern := s.pht[s.phtIdx(a.PC, off)]
	if pattern == 0 {
		return
	}
	s.PHTHits++
	base := region << s.regionShift
	for b := 0; b < s.blocksPer; b++ {
		if b == off || pattern&(1<<b) == 0 {
			continue
		}
		s.queue.Push(prefetch.Request{Addr: base + uint64(b*64), LoadPC: a.PC})
	}
}

func (s *SMS) train(e *agtEntry) {
	// Patterns with a single touched block predict nothing; storing them
	// only pollutes the PHT.
	if e.pattern&(e.pattern-1) == 0 {
		return
	}
	s.pht[s.phtIdx(e.triggerPC, e.triggerOff)] = e.pattern
}

// AppendTick drains the prefetch queue.
//
//bfetch:hotpath
func (s *SMS) AppendTick(dst []prefetch.Request, now uint64) []prefetch.Request {
	return s.queue.AppendPop(dst)
}

// Idle reports whether the queue is drained.
func (s *SMS) Idle() bool { return s.queue.Len() == 0 }

// ResetStats zeroes the measurement counters.
func (s *SMS) ResetStats() {
	s.Generations, s.PHTHits = 0, 0
	s.queue.ResetStats()
}

// RegisterObs exports the engine's counters into the metrics registry.
func (s *SMS) RegisterObs(reg *obs.Registry, prefix string) {
	reg.Func(prefix+"generations", func() uint64 { return s.Generations })
	reg.Func(prefix+"pht_hits", func() uint64 { return s.PHTHits })
	s.queue.RegisterObs(reg, prefix)
}

// StorageBits reports SMS hardware state: AGT entries hold a region tag
// (34 bits), trigger PC (32), trigger offset (log2 blocks) and the pattern;
// the tagless PHT holds one pattern per entry.
func (s *SMS) StorageBits() int {
	offBits := 0
	for 1<<offBits < s.blocksPer {
		offBits++
	}
	agtBits := s.cfg.AGTEntries * (34 + 32 + offBits + s.blocksPer)
	phtBits := s.cfg.PHTEntries * s.blocksPer
	return agtBits + phtBits + s.queue.StorageBits()
}
