// Package stems implements a simplified Spatio-Temporal Memory Streaming
// prefetcher (Somogyi, Wenisch, Ailamaki, Falsafi, ISCA 2009) — the
// heavy-weight SMS extension the paper's related-work section discusses
// (§III-B): SMS's spatial patterns, plus the *temporal order* in which
// spatial regions are visited, so that one recurring trigger can replay a
// whole sequence of upcoming regions.
//
// Structures:
//
//   - SMS's spatial core (sms.Spatial): an active-generation table
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
	"fmt"

	"repro/internal/obs"
	"repro/internal/prefetch"
	"repro/internal/sms"
)

// Config sizes the prefetcher.
type Config struct {
	RegionBytes int // spatial region size (power of two)
	AGTEntries  int
	PHTEntries  int // power of two, tagless
	RMOBEntries int // temporal log capacity (off-chip in the original)
	Depth       int // regions replayed per temporal hit
}

// Validate reports sizes New cannot build: spatial sizes sms.Config.Check
// rejects, or an empty temporal log or replay depth.
func (c Config) Validate() error {
	if err := c.spatial().Check("stems"); err != nil {
		return err
	}
	if c.RMOBEntries <= 0 || c.Depth <= 0 {
		return fmt.Errorf("stems: RMOB entries %d and depth %d must be positive", c.RMOBEntries, c.Depth)
	}
	return nil
}

// spatial returns the sizes of the spatial core.
func (c Config) spatial() sms.Config {
	return sms.Config{RegionBytes: c.RegionBytes, AGTEntries: c.AGTEntries, PHTEntries: c.PHTEntries}
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

type rmobEntry struct {
	triggerPC uint64
	region    uint64
	off       int
}

// STeMS is the prefetcher.
type STeMS struct {
	prefetch.Drain
	cfg Config      //bfetch:noreset configuration
	sp  sms.Spatial //bfetch:noreset learned generations and patterns

	rmob     []rmobEntry    //bfetch:noreset learned temporal log
	rmobHead int            //bfetch:noreset next write position
	rmobLen  int            //bfetch:noreset learned temporal log occupancy
	temporal map[uint64]int //bfetch:noreset trigger key → RMOB position of last occurrence

	// Stats.
	TemporalHits uint64
	Generations  uint64
}

// New builds a STeMS prefetcher; it panics on a configuration Validate
// rejects.
func New(cfg Config) *STeMS {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &STeMS{
		Drain:    prefetch.NewDrain(128, 2),
		cfg:      cfg,
		sp:       sms.NewSpatial(cfg.spatial()),
		rmob:     make([]rmobEntry, cfg.RMOBEntries),
		temporal: make(map[uint64]int),
	}
}

func (s *STeMS) Name() string { return "stems" }

func triggerKey(pc uint64, off int) uint64 {
	return pc<<6 | uint64(off)
}

// OnAccess accumulates spatial patterns, logs region triggers temporally,
// and replays logged futures on temporal hits.
func (s *STeMS) OnAccess(a prefetch.AccessInfo) {
	region, off, trigger := s.sp.Access(a.PC, a.Addr)
	if !trigger {
		return
	}
	s.Generations++

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
		// Always fetch the trigger block; add the stored pattern if known.
		pattern := s.sp.Pattern(e.triggerPC, e.off) | 1<<e.off
		s.sp.PushBlocks(&s.Drain, e.region, pattern, e.triggerPC)
	}
}

// ResetStats zeroes the measurement counters.
func (s *STeMS) ResetStats() {
	s.TemporalHits, s.Generations = 0, 0
	s.Drain.ResetStats()
}

// RegisterObs exports the engine's counters into the metrics registry.
func (s *STeMS) RegisterObs(reg *obs.Registry, prefix string) {
	reg.Func(prefix+"temporal_hits", func() uint64 { return s.TemporalHits })
	reg.Func(prefix+"generations", func() uint64 { return s.Generations })
	reg.Func(prefix+"meta_bytes", func() uint64 { return uint64(s.MetaBytes()) })
	s.Drain.RegisterObs(reg, prefix)
}

// StorageBits reports total state including the temporal log the original
// keeps off-chip: the spatial core, RMOB entries carrying a PC (32), region
// address (34) and offset, a position per live trigger in the temporal
// index, and the queue.
func (s *STeMS) StorageBits() int {
	temporal := s.rmobLen*(32+34+s.sp.OffBits()) + len(s.temporal)*32
	return s.sp.StorageBits() + temporal + s.Drain.StorageBits()
}

// MetaBytes reports the current total state in bytes.
func (s *STeMS) MetaBytes() int { return s.StorageBits() / 8 }
