// Package core implements B-Fetch, the paper's contribution: a data
// prefetcher directed by branch prediction and effective-address value
// speculation (Kadjo et al., MICRO 2014, §IV).
//
// B-Fetch runs as a small three-stage pipeline beside the main core:
//
//	Branch Lookahead  — starting from the branch most recently decoded by
//	                    the main pipeline (delivered through the Decoded
//	                    Branch Register), walk the predicted future control
//	                    path one basic block per cycle using the Branch
//	                    Trace Cache and the main pipeline's branch
//	                    predictor, until cumulative path confidence falls
//	                    below threshold.
//	Register Lookup   — for each basic block on the path, fetch its Memory
//	                    History Table entry: which registers its loads use,
//	                    and the learned displacement between those
//	                    registers' values at the preceding branch and the
//	                    loads' effective addresses.
//	Prefetch Calculate— form prefetch addresses from the current Alternate
//	                    Register File contents plus learned offsets (plus a
//	                    loop term when the lookahead revisits the same
//	                    branch), screen them through the per-load filter,
//	                    and issue them to the L1D through the prefetch
//	                    queue.
//
// All learning happens at commit, in program order, so the tables never
// absorb wrong-path history. The ARF alone is speculatively updated from the
// execute stage (§IV-B2).
package core

import (
	"fmt"
	"math"

	"repro/internal/branch"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/prefetch"
)

// Config sizes B-Fetch. Defaults reproduce Table I / Table II.
type Config struct {
	BrTCEntries   int
	MHTEntries    int
	FilterEntries int // per table (×3 tables)
	QueueEntries  int
	QueuePerCycle int

	PathThreshold   float64 // lookahead stops below this (Table II: 0.75)
	FilterThreshold int     // per-load confidence floor (Table II: 3)
	ARFDelay        uint64  // sampling-latch delay, cycles
	MaxDepth        int     // lookahead safety bound (paper observes ≈8 avg)

	// L1DBlocks sizes the "additional cache bits" of Table I (one 10-bit
	// PC hash + 1 useful bit per L1D block).
	L1DBlocks int

	// Ablation switches (all true in the paper's design).
	EnableLoopPrefetch bool // LoopCnt×LoopDelta term (Equation 3)
	EnablePatterns     bool // neg/posPatt same-base extra blocks
	EnableFilter       bool // per-load filter

	// ARFFromCommit switches the ARF to a retire-stage, purely
	// architectural register copy — the alternative §IV-B2 evaluated and
	// rejected in favour of the execute-stage sampled copy.
	ARFFromCommit bool

	// PrivatePredictor gives the engine its own copy of the branch
	// prediction hardware, trained at commit, instead of borrowing the
	// main predictor's port — the fallback §IV-C sketches for designs
	// where sharing the port is deemed prohibitive. Costs the predictor's
	// storage again (reported by StorageBits).
	PrivatePredictor bool
}

// Validate reports a configuration New cannot build or that could never
// prefetch: the BrTC, the MHT and each filter table must be a positive power
// of two, the queue must hold and drain at least one request, the lookahead
// must reach at least one branch, and the path threshold is a confidence in
// [0, 1].
func (c Config) Validate() error {
	for _, t := range []struct {
		name string
		n    int
	}{{"BrTC", c.BrTCEntries}, {"MHT", c.MHTEntries}, {"filter", c.FilterEntries}} {
		if t.n <= 0 || t.n&(t.n-1) != 0 {
			return fmt.Errorf("core: %s entries %d is not a positive power of two", t.name, t.n)
		}
	}
	for _, t := range []struct {
		name string
		n    int
	}{{"QueueEntries", c.QueueEntries}, {"QueuePerCycle", c.QueuePerCycle}, {"MaxDepth", c.MaxDepth}} {
		if t.n < 1 {
			return fmt.Errorf("core: %s %d is below 1", t.name, t.n)
		}
	}
	if math.IsNaN(c.PathThreshold) || c.PathThreshold < 0 || c.PathThreshold > 1 {
		return fmt.Errorf("core: PathThreshold %v is outside [0, 1]", c.PathThreshold)
	}
	return nil
}

// DefaultConfig is the paper's 12.94 KB configuration.
func DefaultConfig() Config {
	return Config{
		BrTCEntries:        256,
		MHTEntries:         128,
		FilterEntries:      2048,
		QueueEntries:       100,
		QueuePerCycle:      2,
		PathThreshold:      0.75,
		FilterThreshold:    3,
		ARFDelay:           2,
		MaxDepth:           64,
		L1DBlocks:          1024, // 64 KB / 64 B
		EnableLoopPrefetch: true,
		EnablePatterns:     true,
		EnableFilter:       true,
	}
}

// WithTableScale returns the configuration with BrTC and MHT entry counts
// scaled as in the Figure 15 storage study: scale 1 is the default
// (256/128); 0.25, 0.5 and 2 give the paper's 8.01, 9.65 and 19.46 KB
// points.
func (c Config) WithTableScale(scale float64) Config {
	c.BrTCEntries = int(float64(c.BrTCEntries) * scale)
	c.MHTEntries = int(float64(c.MHTEntries) * scale)
	return c
}

// Stats counts B-Fetch engine activity.
type Stats struct {
	LookaheadStarts uint64
	LookaheadSteps  uint64 // basic blocks walked
	LookaheadStops  uint64 // terminations below path-confidence threshold
	BrTCMisses      uint64 // terminations on a cold BrTC
	LoopsDetected   uint64

	Candidates     uint64 // addresses generated before filtering
	MHTMisses      uint64 // lookahead blocks with no Memory History entry
	Filtered       uint64 // suppressed by the per-load filter
	PatternExtra   uint64 // extra blocks from neg/posPatt
	LoopPrefetches uint64 // candidates using the loop term
}

// lookahead is the Branch Lookahead stage's architectural state.
type lookahead struct {
	active bool
	key    pathKey // the branch/direction/target naming the current BB
	ghr    branch.GHR
	path   *branch.PathConfidence
	depth  int
	// visits tracks how often each block was seen during this lookahead
	// (the loop-detection state); a small linear structure because a walk
	// is at most MaxDepth long and loops revisit few distinct blocks.
	visitHash  []uint64
	visitCount []int
}

// visit bumps and returns the previous visit count for hash h.
func (la *lookahead) visit(h uint64) int {
	for i, vh := range la.visitHash {
		if vh == h {
			la.visitCount[i]++
			return la.visitCount[i] - 1
		}
	}
	la.visitHash = append(la.visitHash, h)
	la.visitCount = append(la.visitCount, 1)
	return 0
}

// BFetch is the prefetch engine. It implements prefetch.Prefetcher and
// cpu.ExecObserver.
type BFetch struct {
	cfg  Config             //bfetch:noreset configuration
	bp   *branch.Predictor  //bfetch:noreset shared predictor, owned by the core
	conf *branch.Confidence //bfetch:noreset shared estimator, owned by the core

	brtc   *brtc       //bfetch:noreset learned branch-trace state
	mht    *mht        //bfetch:noreset learned memory-history state
	arf    *arf        //bfetch:noreset speculative register samples in flight
	filter *loadFilter //bfetch:noreset learned per-load confidence
	queue  *prefetch.Queue

	la       lookahead           //bfetch:noreset lookahead pipeline state in flight
	dbr      prefetch.DecodeInfo //bfetch:noreset Decoded Branch Register: newest decoded branch
	dbrValid bool                //bfetch:noreset pipeline latch, not a counter

	// Commit-side learning state: the key of the basic block being
	// committed, and the register values when its leading branch committed.
	curKey   pathKey            //bfetch:noreset commit-side learning state
	haveKey  bool               //bfetch:noreset commit-side learning state
	snapshot [isa.NumRegs]int64 //bfetch:noreset commit-side learning state
	visitSeq uint64             //bfetch:noreset monotonic learning sequence, never rewinds

	// commitGHR trains the private predictor copy, when configured.
	commitGHR branch.GHR //bfetch:noreset learned history

	Stats Stats
}

// New builds a B-Fetch engine sharing the main pipeline's branch predictor
// and confidence estimator (the paper's borrowed-port design, §IV-C), or —
// with Config.PrivatePredictor — its own commit-trained copies. It panics on
// a configuration Validate rejects.
func New(cfg Config, bp *branch.Predictor, conf *branch.Confidence) *BFetch {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.PrivatePredictor {
		bp = branch.New(bp.Config())
		conf = branch.NewConfidence(conf.Config())
	}
	b := &BFetch{
		cfg:    cfg,
		bp:     bp,
		conf:   conf,
		brtc:   newBrTC(cfg.BrTCEntries),
		mht:    newMHT(cfg.MHTEntries),
		arf:    newARF(cfg.ARFDelay),
		filter: newLoadFilter(cfg.FilterEntries, cfg.FilterThreshold),
		queue:  prefetch.NewQueue(cfg.QueueEntries, cfg.QueuePerCycle),
	}
	b.la.path = branch.NewPathConfidence(cfg.PathThreshold)
	return b
}

func (b *BFetch) Name() string { return "bfetch" }

// Config returns the engine's configuration.
func (b *BFetch) Config() Config { return b.cfg }

// ----------------------------------------------------------- front feeds --

// OnDecode places the newest decoded control instruction in the DBR. The
// lookahead engine picks it up when it finishes (or abandons) its current
// walk.
//
//bfetch:hotpath
func (b *BFetch) OnDecode(d prefetch.DecodeInfo) {
	if d.PredNext == 0 {
		return // stalled fetch (unresolved indirect); nothing to walk from
	}
	b.dbr = d
	b.dbrValid = true
}

// OnExec implements cpu.ExecObserver: execute-stage register samples feed
// the ARF through its sampling latches.
func (b *BFetch) OnExec(reg isa.Reg, val int64, seq uint64, now uint64) {
	if b.cfg.ARFFromCommit {
		return
	}
	b.arf.sample(reg, val, seq, now)
}

// ------------------------------------------------------- commit learning --

// OnCommit trains the BrTC and MHT from the in-order retirement stream.
//
//bfetch:hotpath
func (b *BFetch) OnCommit(ci prefetch.CommitInfo) {
	in := ci.Inst
	if b.cfg.ARFFromCommit && in.HasDest() {
		d := in.DestReg()
		b.arf.val[d] = ci.Regs[d]
	}
	switch {
	case in.IsControl():
		if b.cfg.PrivatePredictor && in.IsCondBranch() {
			pred := b.bp.Lookup(ci.PC, b.commitGHR)
			b.bp.Update(ci.PC, b.commitGHR, ci.Taken, pred)
			b.conf.Update(ci.PC, b.commitGHR, pred.Taken == ci.Taken)
			b.commitGHR = b.commitGHR.Shift(ci.Taken)
		}
		key := pathKey{branchPC: ci.PC, taken: ci.Taken, targetPC: ci.Next}
		if b.haveKey {
			// The previous block (entered via curKey) ends at this control
			// instruction: remember that hop in the BrTC.
			takenTarget := ci.TargetPC // static, for direct control
			if in.Op == isa.JR {
				takenTarget = ci.Next // indirect: last observed target
			}
			b.brtc.update(b.curKey, brtcEntry{
				nextBranchPC: ci.PC,
				nextTaken:    takenTarget,
				nextIsCond:   in.IsCondBranch(),
				nextIsJR:     in.Op == isa.JR,
			})
		}
		b.curKey = key
		b.haveKey = true
		b.visitSeq++
		b.snapshot = *ci.Regs
	case in.IsLoad() && b.haveKey:
		base := in.BaseReg()
		b.mht.learn(b.curKey, uint8(base), b.snapshot[base], ci.EA, ci.PC, b.visitSeq)
	}
}

// OnAccess is unused: B-Fetch is not miss-driven.
//
//bfetch:hotpath
func (b *BFetch) OnAccess(prefetch.AccessInfo) {}

// PrefetchUseful and PrefetchUseless route L1D feedback into the per-load
// filter.
func (b *BFetch) PrefetchUseful(loadPC uint64, _ uint64)  { b.filter.useful(loadPC) }
func (b *BFetch) PrefetchUseless(loadPC uint64, _ uint64) { b.filter.useless(loadPC) }

// ------------------------------------------------------------- the walk --

// AppendTick advances the prefetch pipeline one cycle: apply ARF samples,
// walk one basic block of lookahead (generating that block's prefetches),
// and drain the queue into dst.
//
//bfetch:hotpath
func (b *BFetch) AppendTick(dst []prefetch.Request, now uint64) []prefetch.Request {
	b.arf.tick(now)

	// Pick up a new lookahead when idle.
	if !b.la.active && b.dbrValid {
		d := b.dbr
		b.dbrValid = false
		b.la.active = true
		b.la.key = pathKey{branchPC: d.PC, taken: d.PredTaken, targetPC: d.PredNext}
		b.la.ghr = branch.GHR(d.GHR)
		if d.Op != isa.JMP && d.Op != isa.JR {
			b.la.ghr = b.la.ghr.Shift(d.PredTaken)
		}
		b.la.path.Reset()
		b.la.depth = 0
		b.la.visitHash = b.la.visitHash[:0]
		b.la.visitCount = b.la.visitCount[:0]
		b.Stats.LookaheadStarts++
	}

	if b.la.active {
		b.step()
	}
	return b.queue.AppendPop(dst)
}

// Idle reports whether the whole engine is quiescent: no lookahead in
// flight, no decoded branch waiting in the DBR, no ARF samples draining
// through the sampling latches, and an empty prefetch queue. Only then can
// the core skip the engine's cycles without changing its behaviour.
//
//bfetch:hotpath
func (b *BFetch) Idle() bool {
	return !b.la.active && !b.dbrValid && b.arf.idle() && b.queue.Len() == 0
}

// ResetStats zeroes the measurement counters without touching learned state.
func (b *BFetch) ResetStats() {
	b.Stats = Stats{}
	b.queue.ResetStats()
}

// RegisterObs exports the engine's internal counters into the metrics
// registry — the same fields harness tables print, under canonical names.
func (b *BFetch) RegisterObs(reg *obs.Registry, prefix string) {
	reg.Func(prefix+"lookahead_starts", func() uint64 { return b.Stats.LookaheadStarts })
	reg.Func(prefix+"lookahead_steps", func() uint64 { return b.Stats.LookaheadSteps })
	reg.Func(prefix+"lookahead_stops", func() uint64 { return b.Stats.LookaheadStops })
	reg.Func(prefix+"brtc_misses", func() uint64 { return b.Stats.BrTCMisses })
	reg.Func(prefix+"loops_detected", func() uint64 { return b.Stats.LoopsDetected })
	reg.Func(prefix+"candidates", func() uint64 { return b.Stats.Candidates })
	reg.Func(prefix+"mht_misses", func() uint64 { return b.Stats.MHTMisses })
	reg.Func(prefix+"filtered", func() uint64 { return b.Stats.Filtered })
	reg.Func(prefix+"pattern_extra", func() uint64 { return b.Stats.PatternExtra })
	reg.Func(prefix+"loop_prefetches", func() uint64 { return b.Stats.LoopPrefetches })
	b.queue.RegisterObs(reg, prefix)
}

// step processes one basic block: generate its prefetches, then advance to
// the next predicted branch.
//
//bfetch:hotpath
func (b *BFetch) step() {
	b.Stats.LookaheadSteps++
	loopCnt := b.la.visit(b.la.key.hash())
	if loopCnt == 1 {
		b.Stats.LoopsDetected++
	}

	b.generate(b.la.key, loopCnt)

	// Advance along the predicted path.
	b.la.depth++
	if b.la.depth >= b.cfg.MaxDepth {
		b.la.active = false
		return
	}
	e, ok := b.brtc.lookup(b.la.key)
	if !ok {
		b.Stats.BrTCMisses++
		b.la.active = false
		return
	}
	var (
		taken bool
		next  uint64
		prob  float64
	)
	switch {
	case e.nextIsCond:
		pred := b.bp.Lookup(e.nextBranchPC, b.la.ghr)
		taken = pred.Taken
		prob = b.conf.Estimate(e.nextBranchPC, b.la.ghr, pred)
		b.la.ghr = b.la.ghr.Shift(taken)
		if taken {
			next = e.nextTaken
		} else {
			next = e.nextBranchPC + isa.InstBytes
		}
	default:
		// Unconditional: direction certain; indirect targets carry the
		// last observed target, trusted at slightly less than unity.
		taken = true
		next = e.nextTaken
		prob = 1.0
		if e.nextIsJR {
			prob = 0.9
		}
		if next == 0 {
			b.la.active = false
			return
		}
	}
	if !b.la.path.Extend(prob) {
		b.Stats.LookaheadStops++
		b.la.active = false
		return
	}
	b.la.key = pathKey{branchPC: e.nextBranchPC, taken: taken, targetPC: next}
}

// generate emits prefetch candidates for the basic block entered via k,
// using current ARF values plus learned offsets (Equations 2 and 3).
//
//bfetch:hotpath
func (b *BFetch) generate(k pathKey, loopCnt int) {
	e := b.mht.lookup(k)
	if e == nil {
		b.Stats.MHTMisses++
		return
	}
	for i := range e.regs {
		h := &e.regs[i]
		if !h.valid {
			continue
		}
		addr := uint64(b.arf.read(h.regIdx) + h.offset)
		usedLoop := false
		if b.cfg.EnableLoopPrefetch && loopCnt > 0 && h.loopDeltaValid {
			addr = uint64(int64(addr) + int64(loopCnt)*h.loopDelta)
			usedLoop = true
		}
		b.Stats.Candidates++
		if b.cfg.EnableFilter && !b.filter.allow(h.loadPC) {
			b.Stats.Filtered++
			continue
		}
		if usedLoop {
			b.Stats.LoopPrefetches++
		}
		b.queue.Push(prefetch.Request{Addr: addr, LoadPC: h.loadPC})

		if !b.cfg.EnablePatterns {
			continue
		}
		for d := 1; d <= pattBits; d++ {
			if h.posPatt&(1<<(d-1)) != 0 {
				b.queue.Push(prefetch.Request{Addr: addr + uint64(d*64), LoadPC: h.loadPC})
				b.Stats.PatternExtra++
			}
			if h.negPatt&(1<<(d-1)) != 0 {
				b.queue.Push(prefetch.Request{Addr: addr - uint64(d*64), LoadPC: h.loadPC})
				b.Stats.PatternExtra++
			}
		}
	}
}

// ----------------------------------------------------------- accounting --

// StorageBits reproduces Table I: BrTC + MHT + ARF + per-load filter +
// additional L1D bits (10-bit PC hash + useful bit per block) + prefetch
// queue + path-confidence estimator.
func (b *BFetch) StorageBits() int {
	private := 0
	if b.cfg.PrivatePredictor {
		private = b.bp.StorageBits()
	}
	return private +
		b.brtc.storageBits() +
		b.mht.storageBits() +
		b.arf.storageBits() +
		b.filter.storageBits() +
		b.cfg.L1DBlocks*11 +
		b.queue.StorageBits() +
		b.conf.StorageBits()
}
