// Package stems implements a simplified Spatio-Temporal Memory Streaming
// prefetcher (Somogyi, Wenisch, Ailamaki, Falsafi, ISCA 2009) — the
// heavy-weight SMS extension the paper's related-work section discusses
// (§III-B): SMS's spatial patterns, plus the *temporal order* in which
// spatial regions are visited, so that one recurring trigger can replay a
// whole sequence of upcoming regions.
//
// Structures:
//
//   - a spatial side identical in spirit to SMS: an active-generation table
//     accumulates per-region access patterns, trained into a pattern table
//     keyed by the region's trigger;
//   - a Region Miss Order Buffer (RMOB): a circular log of region triggers
//     in program order — the temporal stream. The original keeps this
//     meta-data off-chip (megabytes, shuttled on demand, §III-B / [27]);
//     here it lives in simulator memory with a capacity cap and its size is
//     reported by StorageBits;
//   - a temporal index mapping a trigger to its most recent RMOB position.
//
// On a trigger that hits the temporal index, the streaming engine replays
// the next Depth logged regions, prefetching each one's stored spatial
// pattern — recreating the interleaved future miss sequence, which is
// exactly what plain SMS cannot do across region boundaries.
package stems

import (
	"repro/internal/obs"
	"repro/internal/prefetch"
)

// Config sizes the prefetcher.
type Config struct {
	RegionBytes int // spatial region size (power of two)
	AGTEntries  int
	PHTEntries  int // power of two, tagless
	RMOBEntries int // temporal log capacity (off-chip in the original)
	Depth       int // regions replayed per temporal hit
}

// DefaultConfig follows the paper's description: SMS's practical spatial
// configuration plus a megabyte-class temporal log.
func DefaultConfig() Config {
	return Config{
		RegionBytes: 2048,
		AGTEntries:  64,
		PHTEntries:  16384,
		RMOBEntries: 64 * 1024,
		Depth:       4,
	}
}

type generation struct {
	valid      bool
	regionTag  uint64
	triggerPC  uint64
	triggerOff int
	pattern    uint64
	lastUse    uint64
}

type rmobEntry struct {
	triggerPC uint64
	region    uint64
	off       int
}

// STeMS is the prefetcher.
type STeMS struct {
	prefetch.Base
	cfg         Config //bfetch:noreset configuration
	regionShift uint   //bfetch:noreset configuration
	blocksPer   int    //bfetch:noreset configuration

	agt []generation //bfetch:noreset learned active generations
	pht []uint64     //bfetch:noreset learned patterns

	rmob     []rmobEntry    //bfetch:noreset learned temporal log
	rmobHead int            //bfetch:noreset next write position
	rmobLen  int            //bfetch:noreset learned temporal log occupancy
	temporal map[uint64]int //bfetch:noreset trigger key → RMOB position of last occurrence

	queue *prefetch.Queue
	clock uint64 //bfetch:noreset internal clock, monotonic

	// Stats.
	TemporalHits uint64
	Generations  uint64
}

// New builds a STeMS prefetcher.
func New(cfg Config) *STeMS {
	if cfg.RegionBytes < 128 || cfg.RegionBytes&(cfg.RegionBytes-1) != 0 {
		panic("stems: region bytes must be a power of two ≥ 128")
	}
	if cfg.PHTEntries <= 0 || cfg.PHTEntries&(cfg.PHTEntries-1) != 0 {
		panic("stems: PHT entries must be a power of two")
	}
	if cfg.Depth <= 0 || cfg.RMOBEntries <= 0 {
		panic("stems: invalid temporal configuration")
	}
	shift := uint(0)
	for 1<<shift != cfg.RegionBytes {
		shift++
	}
	blocks := cfg.RegionBytes / 64
	if blocks > 64 {
		panic("stems: region too large for a 64-bit pattern")
	}
	return &STeMS{
		cfg:         cfg,
		regionShift: shift,
		blocksPer:   blocks,
		agt:         make([]generation, cfg.AGTEntries),
		pht:         make([]uint64, cfg.PHTEntries),
		rmob:        make([]rmobEntry, cfg.RMOBEntries),
		temporal:    make(map[uint64]int),
		queue:       prefetch.NewQueue(128, 2),
	}
}

func (s *STeMS) Name() string { return "stems" }

func triggerKey(pc uint64, off int) uint64 {
	return pc<<6 | uint64(off)
}

func (s *STeMS) phtIdx(pc uint64, off int) int {
	h := (pc >> 2) ^ (pc >> 13) ^ uint64(off)*0x9E37
	return int(h & uint64(s.cfg.PHTEntries-1))
}

// OnAccess accumulates spatial patterns, logs region triggers temporally,
// and replays logged futures on temporal hits.
func (s *STeMS) OnAccess(a prefetch.AccessInfo) {
	s.clock++
	region := a.Addr >> s.regionShift
	off := int((a.Addr >> 6) & uint64(s.blocksPer-1))

	// Within an active generation: accumulate.
	for i := range s.agt {
		g := &s.agt[i]
		if g.valid && g.regionTag == region {
			g.pattern |= 1 << off
			g.lastUse = s.clock
			return
		}
	}

	// Region trigger.
	s.Generations++
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
	*victim = generation{
		valid: true, regionTag: region, triggerPC: a.PC,
		triggerOff: off, pattern: 1 << off, lastUse: s.clock,
	}

	key := triggerKey(a.PC, off)
	if pos, ok := s.temporal[key]; ok && s.rmob[pos].region == region {
		// The same trigger touched the same region before: replay the
		// regions that followed it last time.
		s.TemporalHits++
		s.replay(pos)
	}

	// Log this trigger.
	s.rmob[s.rmobHead] = rmobEntry{triggerPC: a.PC, region: region, off: off}
	s.temporal[key] = s.rmobHead
	s.rmobHead = (s.rmobHead + 1) % len(s.rmob)
	if s.rmobLen < len(s.rmob) {
		s.rmobLen++
	}
}

// replay prefetches the spatial patterns of the Depth regions logged after
// position pos.
func (s *STeMS) replay(pos int) {
	for d := 1; d <= s.cfg.Depth; d++ {
		p := (pos + d) % len(s.rmob)
		if p >= s.rmobLen && s.rmobLen < len(s.rmob) {
			return // past the log's end
		}
		e := s.rmob[p]
		if e.region == 0 && e.triggerPC == 0 {
			return
		}
		base := e.region << s.regionShift
		pattern := s.pht[s.phtIdx(e.triggerPC, e.off)]
		// Always fetch the trigger block; add the stored pattern if known.
		pattern |= 1 << e.off
		for b := 0; b < s.blocksPer; b++ {
			if pattern&(1<<b) != 0 {
				s.queue.Push(prefetch.Request{Addr: base + uint64(b*64), LoadPC: e.triggerPC})
			}
		}
	}
}

func (s *STeMS) train(g *generation) {
	if g.pattern&(g.pattern-1) == 0 {
		return
	}
	s.pht[s.phtIdx(g.triggerPC, g.triggerOff)] = g.pattern
}

// AppendTick drains the prefetch queue.
//
//bfetch:hotpath
func (s *STeMS) AppendTick(dst []prefetch.Request, now uint64) []prefetch.Request {
	return s.queue.AppendPop(dst)
}

// Idle reports whether the queue is drained.
func (s *STeMS) Idle() bool { return s.queue.Len() == 0 }

// ResetStats zeroes the measurement counters.
func (s *STeMS) ResetStats() {
	s.TemporalHits, s.Generations = 0, 0
	s.queue.ResetStats()
}

// RegisterObs exports the engine's counters into the metrics registry.
func (s *STeMS) RegisterObs(reg *obs.Registry, prefix string) {
	reg.Func(prefix+"temporal_hits", func() uint64 { return s.TemporalHits })
	reg.Func(prefix+"generations", func() uint64 { return s.Generations })
	reg.Func(prefix+"meta_bytes", func() uint64 { return uint64(s.MetaBytes()) })
	s.queue.RegisterObs(reg, prefix)
}

// StorageBits reports total state including the temporal log the original
// keeps off-chip: RMOB entries carry a PC (32), region address (34) and
// offset; the temporal index adds a position per live trigger.
func (s *STeMS) StorageBits() int {
	offBits := 0
	for 1<<offBits < s.blocksPer {
		offBits++
	}
	spatial := s.cfg.AGTEntries*(34+32+offBits+s.blocksPer) + s.cfg.PHTEntries*s.blocksPer
	temporal := s.rmobLen*(32+34+offBits) + len(s.temporal)*32
	return spatial + temporal + s.queue.StorageBits()
}

// MetaBytes reports the current total state in bytes.
func (s *STeMS) MetaBytes() int { return s.StorageBits() / 8 }
