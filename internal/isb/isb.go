// Package isb implements a simplified Irregular Stream Buffer (Jain & Lin,
// "Linearizing Irregular Memory Accesses for Improved Correlated
// Prefetching", MICRO 2013) — the heavy-weight comparator the paper's
// related-work section positions B-Fetch against (§III-B): very high
// accuracy on irregular streams, at the cost of megabytes of off-chip
// meta-data.
//
// The key idea: an extra level of indirection maps correlated physical
// addresses onto consecutive *structural* addresses. Two tables implement
// the indirection — PS (physical→structural) and SP (structural→physical).
// A PC-localized training unit observes consecutive accesses by the same
// load: when PC p touches block A then block B, B is assigned the structural
// address following A's, so the irregular physical sequence A,B,C… becomes
// the sequential structural run s,s+1,s+2…. Prefetching is then plain
// next-N in structural space, translated back through SP.
//
// This reproduction keeps the maps in simulator memory and accounts their
// size; the original stores them off-chip (≈8 MB) and pays ≈8.4% memory
// traffic to shuttle them, which Table-I-style comparisons must remember
// (see the ext-isb experiment).
package isb

import (
	"repro/internal/obs"
	"repro/internal/prefetch"
)

// Config sizes the prefetcher.
type Config struct {
	Degree      int // structural-space prefetch degree
	StreamLen   int // structural stream granularity
	MaxMappings int // meta-data cap, modelling the off-chip budget
}

// DefaultConfig follows the MICRO 2013 evaluation scale: degree 4, 256-block
// streams, and a meta-data budget equivalent to 8 MB off-chip storage
// (≈1 M mappings at ~8 bytes each).
func DefaultConfig() Config {
	return Config{Degree: 4, StreamLen: 256, MaxMappings: 1 << 20}
}

// ISB is the prefetcher.
type ISB struct {
	prefetch.Base
	cfg Config //bfetch:noreset configuration

	ps        map[uint64]uint64 //bfetch:noreset physical block → structural address
	sp        map[uint64]uint64 //bfetch:noreset structural address → physical block
	lastBlock map[uint64]uint64 //bfetch:noreset load PC → previous block (training unit)

	nextStream uint64 //bfetch:noreset structural address allocator, learned
	queue      *prefetch.Queue

	// Stats.
	TrainedPairs  uint64
	MetaOverflows uint64
}

// New builds an ISB prefetcher.
func New(cfg Config) *ISB {
	if cfg.Degree <= 0 || cfg.StreamLen <= 1 {
		panic("isb: invalid configuration")
	}
	return &ISB{
		cfg:       cfg,
		ps:        make(map[uint64]uint64),
		sp:        make(map[uint64]uint64),
		lastBlock: make(map[uint64]uint64),
		queue:     prefetch.NewQueue(100, 2),
	}
}

func (p *ISB) Name() string { return "isb" }

// OnAccess trains the structural mapping and issues structural next-N
// prefetches.
func (p *ISB) OnAccess(a prefetch.AccessInfo) {
	if a.Write {
		return
	}
	block := a.Addr >> 6

	// Predict: follow the structural stream from this block.
	if s, ok := p.ps[block]; ok {
		for i := uint64(1); i <= uint64(p.cfg.Degree); i++ {
			if sameStream(s, s+i, p.cfg.StreamLen) {
				if phys, ok := p.sp[s+i]; ok {
					p.queue.Push(prefetch.Request{Addr: phys << 6, LoadPC: a.PC})
				}
			}
		}
	}

	// Train: link the previous block touched by this PC to this one.
	if last, ok := p.lastBlock[a.PC]; ok && last != block {
		p.train(last, block)
	}
	p.lastBlock[a.PC] = block
}

func (p *ISB) train(a, b uint64) {
	if len(p.ps) >= p.cfg.MaxMappings {
		p.MetaOverflows++
		return
	}
	sA, ok := p.ps[a]
	if !ok || !sameStream(sA, sA+1, p.cfg.StreamLen) {
		// Start a new structural stream at A.
		sA = p.nextStream * uint64(p.cfg.StreamLen)
		p.nextStream++
		p.map2(a, sA)
	}
	p.map2(b, sA+1)
	p.TrainedPairs++
}

// map2 installs a bidirectional mapping, unlinking any previous occupant of
// either side (a physical block lives at one structural address and vice
// versa, as in the original's invariant).
func (p *ISB) map2(phys, structural uint64) {
	if old, ok := p.ps[phys]; ok {
		delete(p.sp, old)
	}
	if old, ok := p.sp[structural]; ok {
		delete(p.ps, old)
	}
	p.ps[phys] = structural
	p.sp[structural] = phys
}

func sameStream(a, b uint64, streamLen int) bool {
	return a/uint64(streamLen) == b/uint64(streamLen)
}

// AppendTick drains the prefetch queue.
//
//bfetch:hotpath
func (p *ISB) AppendTick(dst []prefetch.Request, now uint64) []prefetch.Request {
	return p.queue.AppendPop(dst)
}

// Idle reports whether the queue is drained.
func (p *ISB) Idle() bool { return p.queue.Len() == 0 }

// ResetStats zeroes the measurement counters.
func (p *ISB) ResetStats() {
	p.TrainedPairs, p.MetaOverflows = 0, 0
	p.queue.ResetStats()
}

// RegisterObs exports the engine's counters into the metrics registry.
func (p *ISB) RegisterObs(reg *obs.Registry, prefix string) {
	reg.Func(prefix+"trained_pairs", func() uint64 { return p.TrainedPairs })
	reg.Func(prefix+"meta_overflows", func() uint64 { return p.MetaOverflows })
	reg.Func(prefix+"meta_bytes", func() uint64 { return uint64(p.MetaBytes()) })
	p.queue.RegisterObs(reg, prefix)
}

// StorageBits reports the meta-data footprint: each mapping costs a
// structural and a physical block address (~42 bits each) in both tables.
// This is the number Table I-style comparisons must weigh against B-Fetch's
// ~13 KB — it is orders of magnitude larger and lives off-chip in the
// original design.
func (p *ISB) StorageBits() int {
	return (len(p.ps)+len(p.sp))*42 + p.queue.StorageBits()
}

// MetaBytes reports the current meta-data size in bytes.
func (p *ISB) MetaBytes() int { return p.StorageBits() / 8 }
