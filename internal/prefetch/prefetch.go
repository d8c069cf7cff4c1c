// Package prefetch defines the prefetcher interface the simulated cores
// drive, a bounded prefetch queue shared by all implementations, the drain
// skeleton of the engines that issue only through that queue, and the two
// classic light-weight prefetchers the paper compares against: Next-N lines
// (Smith, 1978) and the stride/reference-prediction-table prefetcher
// (Chen & Baer, 1995), configured at degree 8 as in §V-A.
package prefetch

import (
	"repro/internal/isa"
	"repro/internal/obs"
)

// DecodeInfo describes a control instruction leaving the decode stage; this
// is the feed into B-Fetch's Decoded Branch Register. The front end annotates
// it with its prediction metadata so a lookahead engine can pick up control
// flow exactly where fetch left it.
type DecodeInfo struct {
	PC        uint64 // byte address of the control instruction
	Op        isa.Op
	Target    uint64 // static target (direct branches/jumps), else 0
	PredTaken bool   // fetch-time predicted direction
	PredNext  uint64 // fetch-time predicted next PC
	GHR       uint64 // global history the fetch prediction was made with
}

// CommitInfo describes one instruction retiring in program order. Regs
// points at the committed architectural register file after the
// instruction's effects; it is owned by the core and only valid during the
// call.
type CommitInfo struct {
	PC       uint64
	Inst     isa.Inst
	EA       uint64 // memory ops: effective address
	Taken    bool   // control ops: resolved direction
	Next     uint64 // byte address of the next retired instruction
	TargetPC uint64 // direct control ops: static taken-target byte address
	Regs     *[isa.NumRegs]int64
}

// AccessInfo describes a demand access issued to the L1D.
type AccessInfo struct {
	PC    uint64
	Addr  uint64
	Write bool
	Hit   bool
}

// Request is one prefetch the engine wants issued to the L1D. LoadPC
// attributes the request to the load it anticipates, for per-load filtering
// and feedback.
type Request struct {
	Addr   uint64
	LoadPC uint64
}

// Prefetcher is the contract between a core and its prefetch engine. A
// miss-driven prefetcher typically only uses OnAccess; B-Fetch uses the
// decode and commit streams and a per-cycle AppendTick for its lookahead
// pipeline.
type Prefetcher interface {
	Name() string

	// OnDecode observes decoded control instructions.
	OnDecode(DecodeInfo)
	// OnCommit observes the in-order retirement stream.
	OnCommit(CommitInfo)
	// OnAccess observes demand L1D accesses.
	OnAccess(AccessInfo)

	// PrefetchUseful and PrefetchUseless deliver cache feedback about
	// blocks this prefetcher filled.
	PrefetchUseful(loadPC, blockAddr uint64)
	PrefetchUseless(loadPC, blockAddr uint64)

	// AppendTick advances one cycle, appends the requests to issue this
	// cycle to dst, and returns the extended slice. The caller owns dst and
	// reuses it across cycles, so implementations must not retain it; the
	// append-style contract keeps the per-cycle path allocation-free.
	AppendTick(dst []Request, now uint64) []Request

	// Idle reports whether the engine is quiescent: AppendTick would do no
	// work and emit no requests this cycle or any future cycle until one of
	// the On* hooks delivers new input. The simulation loop uses it to skip
	// dead cycles, so a correct implementation must return false whenever
	// any internal pipeline stage, sampling latch, or queue holds work.
	// When in doubt return false — that only disables the optimization.
	Idle() bool

	// ResetStats zeroes measurement counters (after warmup) without
	// touching learned state.
	ResetStats()

	// StorageBits reports the hardware state the prefetcher would occupy.
	StorageBits() int
}

// Base provides no-op hook implementations for embedding. Its Idle reports
// false — the conservative answer that keeps cycle skipping correct for
// custom engines that buffer work; implementations with visible quiescence
// should override it.
type Base struct{}

//bfetch:hotpath
func (Base) OnDecode(DecodeInfo) {}

//bfetch:hotpath
func (Base) OnCommit(CommitInfo) {}

//bfetch:hotpath
func (Base) OnAccess(AccessInfo) {}

func (Base) PrefetchUseful(uint64, uint64)  {}
func (Base) PrefetchUseless(uint64, uint64) {}

//bfetch:hotpath
func (Base) AppendTick(dst []Request, _ uint64) []Request { return dst }

//bfetch:hotpath
func (Base) Idle() bool       { return false }
func (Base) ResetStats()      {}
func (Base) StorageBits() int { return 0 }

// None is the null prefetcher (the paper's baseline). It is always idle.
type None struct{ Base }

func (None) Name() string { return "none" }

//bfetch:hotpath
func (None) Idle() bool { return true }

// Drain is the issue side of an engine that prefetches only through a
// Queue: the engine embeds it and Pushes from its hooks, AppendTick pops the
// queue, the engine is idle exactly when the queue is empty, and the queue's
// counters, obs names and storage bits are the engine's. Engines with
// counters or tables of their own extend ResetStats, RegisterObs and
// StorageBits and call Drain's.
type Drain struct {
	Base
	q *Queue
}

// NewDrain returns a drain over a queue with the given capacity and
// per-cycle issue limit.
func NewDrain(capacity, perCycle int) Drain { return Drain{q: NewQueue(capacity, perCycle)} }

// Push enqueues a request (see Queue.Push).
//
//bfetch:hotpath
func (d *Drain) Push(r Request) { d.q.Push(r) }

// AppendTick issues this cycle's share of the queue.
//
//bfetch:hotpath
func (d *Drain) AppendTick(dst []Request, _ uint64) []Request { return d.q.AppendPop(dst) }

// Idle reports whether the queue is drained.
//
//bfetch:hotpath
func (d *Drain) Idle() bool { return d.q.Len() == 0 }

// ResetStats zeroes the queue counters.
func (d *Drain) ResetStats() { d.q.ResetStats() }

// RegisterObs exports the queue counters into the metrics registry.
func (d *Drain) RegisterObs(reg *obs.Registry, prefix string) { d.q.RegisterObs(reg, prefix) }

// StorageBits sizes the queue.
func (d *Drain) StorageBits() int { return d.q.StorageBits() }

// Queue is the bounded prefetch request queue every engine drains through.
// It deduplicates by block address against its own contents and issues a
// fixed number of requests per cycle, oldest first. Table I sizes B-Fetch's
// queue at 100 entries. Its storage is fixed at construction — a ring of
// capacity requests and an open-addressed table of their blocks — so Push
// and AppendPop never allocate.
type Queue struct {
	ring     []Request //bfetch:noreset pending requests survive a stats reset
	head, n  int       //bfetch:noreset the pending requests are ring[head..head+n)
	perCycle int       //bfetch:noreset configuration
	inQ      blockSet  //bfetch:noreset tracks pending requests, which survive

	Enqueued    uint64
	DroppedFull uint64
	DroppedDup  uint64
}

// NewQueue returns a queue with the given capacity and per-cycle issue
// limit.
func NewQueue(capacity, perCycle int) *Queue {
	return &Queue{
		ring:     make([]Request, capacity),
		perCycle: perCycle,
		inQ:      newBlockSet(capacity),
	}
}

// Push enqueues a request, dropping it if the queue is full or a request for
// the same block is already pending.
//
//bfetch:hotpath
func (q *Queue) Push(r Request) {
	ba := r.Addr >> 6
	if q.inQ.has(ba) {
		q.DroppedDup++
		return
	}
	if q.n == len(q.ring) {
		q.DroppedFull++
		return
	}
	tail := q.head + q.n
	if tail >= len(q.ring) {
		tail -= len(q.ring)
	}
	q.ring[tail] = r
	q.n++
	q.inQ.add(ba)
	q.Enqueued++
}

// AppendPop removes up to the per-cycle issue limit, appending the popped
// requests to dst and returning the extended slice. It never allocates once
// dst has capacity for the per-cycle limit.
//
//bfetch:hotpath
func (q *Queue) AppendPop(dst []Request) []Request {
	for k := min(q.perCycle, q.n); k > 0; k-- {
		r := q.ring[q.head]
		q.inQ.remove(r.Addr >> 6)
		dst = append(dst, r)
		if q.head++; q.head == len(q.ring) {
			q.head = 0
		}
		q.n--
	}
	return dst
}

// ResetStats zeroes the queue's traffic counters without touching pending
// requests.
func (q *Queue) ResetStats() { q.Enqueued, q.DroppedFull, q.DroppedDup = 0, 0, 0 }

// RegisterObs exports the queue's traffic counters into the metrics
// registry under prefix; every engine's RegisterObs delegates here, through
// Drain or directly, so the queue counters carry the same names for all of
// them.
func (q *Queue) RegisterObs(reg *obs.Registry, prefix string) {
	reg.Func(prefix+"q_enqueued", func() uint64 { return q.Enqueued })
	reg.Func(prefix+"q_dropped_full", func() uint64 { return q.DroppedFull })
	reg.Func(prefix+"q_dropped_dup", func() uint64 { return q.DroppedDup })
}

// Len returns the number of pending requests.
func (q *Queue) Len() int { return q.n }

// StorageBits sizes the queue as hardware: one block-granular physical
// address (42 bits at 48-bit physical) per entry, which is how Table I's
// "Prefetch Queue: 100 entries, 0.51 KB" is reached.
func (q *Queue) StorageBits() int { return len(q.ring) * 42 }

// blockSet is an open-addressed set of block addresses: linear probing over
// a power-of-two table at least twice the most blocks it will hold, with
// backward-shift deletion, so it never fills, needs no tombstones and keeps
// probes short.
type blockSet struct {
	slots []uint64 // block address + 1; 0 is an empty slot
	shift uint     // 64 − log2(len(slots)): home() keeps the hash's top bits
}

func newBlockSet(n int) blockSet {
	size, shift := 2, uint(63)
	for size < 2*n {
		size, shift = size*2, shift-1
	}
	return blockSet{slots: make([]uint64, size), shift: shift}
}

// home is a block's first probe slot (Fibonacci hashing).
//
//bfetch:hotpath
func (s *blockSet) home(ba uint64) int { return int(ba * 0x9E3779B97F4A7C15 >> s.shift) }

//bfetch:hotpath
func (s *blockSet) has(ba uint64) bool {
	mask := len(s.slots) - 1
	for i := s.home(ba); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			return false
		case ba + 1:
			return true
		}
	}
}

// add inserts a block that is not in the set.
//
//bfetch:hotpath
func (s *blockSet) add(ba uint64) {
	mask := len(s.slots) - 1
	i := s.home(ba)
	for s.slots[i] != 0 {
		i = (i + 1) & mask
	}
	s.slots[i] = ba + 1
}

// remove deletes a block that is in the set, shifting later members of its
// probe run back so every member stays reachable from its home slot.
//
//bfetch:hotpath
func (s *blockSet) remove(ba uint64) {
	mask := len(s.slots) - 1
	i := s.home(ba)
	for s.slots[i] != ba+1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; s.slots[j] != 0; j = (j + 1) & mask {
		// The member at j may move back to the hole at i unless its home
		// lies cyclically in (i, j].
		if h := s.home(s.slots[j] - 1); (j-h)&mask < (j-i)&mask {
			continue
		}
		s.slots[i] = s.slots[j]
		i = j
	}
	s.slots[i] = 0
}
