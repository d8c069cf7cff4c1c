// Package cpu is the cycle-level out-of-order core model: a speculative,
// register-renaming machine in the style of gem5's O3 CPU, scoped to what a
// data-prefetching study needs. It executes wrong-path instructions (so
// speculative loads pollute the caches exactly as on hardware), resolves
// branches out of order with full squash-and-redirect recovery, learns its
// branch predictor and prefetcher at commit in program order, and drives a
// prefetch engine through decode, commit, access and per-cycle tick hooks.
//
// Deliberate simplifications, documented here and in DESIGN.md: the issue
// window is the ROB (no separate issue-queue capacity), functional units are
// unbounded except for L1D ports, and memory disambiguation is conservative
// (a load waits for every older store address). None of these interact with
// the prefetcher mechanisms under study.
package cpu

import (
	"fmt"
	"math/bits"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/prefetch"
)

// ExecObserver is implemented by prefetchers that sample execute-stage
// register writebacks (B-Fetch's Alternate Register File feed). The core
// delivers every completing register write, including wrong-path ones, with
// the instruction's sequence number for the ARF's ordering guard.
type ExecObserver interface {
	OnExec(reg isa.Reg, val int64, seq uint64, now uint64)
}

type entryState uint8

const (
	sWait   entryState = iota // waiting for source operands
	sReady                    // operands ready, not yet issued
	sIssued                   // executing (in flight)
	sDone                     // complete, awaiting commit
)

// ref names a ROB entry robustly: sequence numbers are never reused, so a
// stale ref (to a squashed entry whose slot was reallocated, or to one that
// committed) fails the seq-match check instead of aliasing the new
// occupant. Sequence numbers start at 1, so the zero ref names no entry.
type ref struct {
	slot int
	seq  uint64
}

type robEntry struct {
	seq  uint64 // 0 = free/squashed
	slot int
	idx  int // instruction index
	pc   uint64
	inst isa.Inst

	undoSeq uint64 // with undoSlot: the rename mapping the destination displaced
	srcVal  [2]int64
	srcSeq  [2]uint64 // seq of the producer source i waits on; 0 = not waiting

	destVal int64
	ea      uint64
	sqNum   uint64 // stores dispatched before this entry (its store-queue number)
	sqWait  uint64 // sqGen when this load was last found blocked
	state   entryState
	eaValid bool
	faulted bool
	nsrc    uint8 // sources still waiting on a producer
	// undoSlot and undoSeq are the rename mapping this entry's destination
	// displaced at dispatch (the zero ref if none), which recover puts back
	// when it squashes the entry. undoSlot sits in the padding after the
	// byte-sized fields.
	undoSlot int32

	// CPI attribution (cfg.CPIStack): set when the load issued to the
	// memory hierarchy; zeroed with the rest of the entry at dispatch.
	memStart uint64          // cycle the load went to memory
	cl       cache.LoadClass // hierarchy annotation for head-of-ROB charging
	memClass bool            // memStart/cl are valid

	// Control-flow bookkeeping. The byte-sized fields sit next to each
	// other (and to memClass) so the entry carries little padding.
	pred        branch.Pred
	predTaken   bool
	actualTaken bool
	ghr         branch.GHR
	predNext    int // predicted next instruction index; -1 = fetch stalled
	actualNext  int
}

// sqEntry is one queued store: what disambiguation needs, written when the
// store executes.
type sqEntry struct {
	ea       uint64
	data     int64
	resolved bool // ea and data are valid
}

type fqEntry struct {
	idx       int
	pc        uint64
	fetchedAt uint64
	predTaken bool
	predNext  int
	ghr       branch.GHR
	pred      branch.Pred
}

// Core is one simulated out-of-order core.
type Core struct {
	cfg  Config
	prog *isa.Program
	mem  *mem.Memory
	hier *cache.Hierarchy
	bp   *branch.Predictor
	conf *branch.Confidence
	pf   prefetch.Prefetcher
	pfEx ExecObserver // non-nil if pf wants execute samples

	cregs [isa.NumRegs]int64
	rat   [isa.NumRegs]ref // the in-flight producer of each register; zero = committed value

	rob      []robEntry
	headSlot int
	count    int
	nextSeq  uint64 // monotonically increasing; never reused

	// doneAt[s] is the completion cycle of the entry in ROB slot s, valid
	// while it is in flight (inflightBM) or done. It lives beside the ROB so
	// complete() and NextEvent scan 8 bytes per slot, not the entry. doneMin
	// is a lower bound on doneAt over the in-flight entries: complete()
	// returns at once while now < doneMin.
	doneAt  []uint64
	doneMin uint64

	// wake is the wakeup matrix: row p (wakeWords words from p*wakeWords)
	// has bit d set when the entry in slot d waited on slot p's result at
	// dispatch. A consumer records its producer's seq per source (srcSeq),
	// so broadcast checks each visited slot against it and bits left by
	// squashed or reused slots need no cleanup; broadcast clears the row.
	wake      []uint64
	wakeWords int

	// Scheduling bitmaps: bit s of word s/64 tracks ROB slot s. readyBM
	// marks sReady entries awaiting issue, inflightBM marks sIssued entries
	// with a scheduled completion, pendBM marks issued loads parked on
	// disambiguation or ports. Invariant: a set bit always names a live
	// entry in the matching state — state transitions and recover() keep the
	// maps exact — so the schedulers walk set bits with TrailingZeros64
	// instead of filtering ref lists, and walking the ring from headSlot
	// yields entries oldest-first without a sort (slot order inside
	// [headSlot, headSlot+count) is sequence order).
	readyBM    []uint64
	inflightBM []uint64
	pendBM     []uint64

	// storeQ is a ring of uncommitted stores, oldest first (disambiguation).
	// Capacity is the ROB size — a store occupies a ROB slot while queued —
	// so the backing array is allocated once and never grows. Stores are
	// numbered in dispatch order: sqBase is the number of the oldest queued
	// store (the count committed so far), and every ROB entry records in
	// sqNum the number of stores dispatched before it. A load's older
	// stores are thus exactly numbers [sqBase, sqNum), and a squash
	// truncates the queue to the resolving branch's sqNum.
	storeQ []sqEntry
	sqHead int // ring index of store number sqBase
	sqN    int
	sqBase uint64

	// Store-queue membership filter for disambiguation: sqUnknown counts
	// queued stores whose address is not yet computed, sqBuck counts
	// address-resolved queued stores per 8-byte-granularity bucket, and
	// sqMask keeps bit b set while sqBuck[b] is nonzero. A load whose
	// three-bucket neighborhood is empty while sqUnknown is zero provably
	// has no older-store conflict, so disambiguate skips the queue scan.
	sqUnknown int
	sqBuck    [64]int32
	sqMask    uint64

	// sqGen versions the store-queue state a load's disambiguation depends
	// on: it advances whenever a queued store resolves its address, drains
	// at commit, or the queue rolls back on a squash. A blocked load records
	// the generation it was rejected under (robEntry.sqWait) and is not
	// re-scanned until the generation moves — a pure memoization, since an
	// unchanged queue returns the same verdict and a blocked attempt has no
	// side effects (no port use, no counters). Stores *entering* the queue
	// do not advance it: a new store is younger than every already-pending
	// load, and disambiguation only looks at older stores.
	sqGen uint64

	// pendStale is set when some parked load may pass on a retry: sqGen
	// advanced (sqAdvance), or a load was parked for a port. While it is
	// clear every pendBM entry holds sqWait == sqGen, so issue skips the
	// pendBM walk and NextEvent does not pin the clock to now+1 for parked
	// loads.
	pendStale bool

	// fq is the fetch queue as a ring: capacity cfg.FetchQueue, allocated
	// once. (A plain slice advanced with fq[1:] would re-allocate its
	// backing array continuously on the hot path.)
	fq     []fqEntry
	fqHead int
	fqN    int

	fetchPC       int // next instruction index to fetch; -1 = stalled
	fetchResumeAt uint64
	specGHR       branch.GHR

	halted bool
	err    error

	// Per-cycle scratch buffer, reused so the steady-state cycle path does
	// not allocate: pfReqs receives the prefetcher's requests in
	// prefetchTick().
	pfReqs []prefetch.Request

	Stats Stats
}

// pfReqsCap is pfReqs' starting capacity: above every built-in engine's
// two requests per cycle, so the buffer never grows mid-run.
const pfReqsCap = 4

// New builds a core at the program entry point.
func New(cfg Config, prog *isa.Program, m *mem.Memory, hier *cache.Hierarchy,
	bp *branch.Predictor, conf *branch.Confidence, pf prefetch.Prefetcher) *Core {
	words := (cfg.ROBEntries + 63) / 64
	c := &Core{
		cfg:        cfg,
		prog:       prog,
		mem:        m,
		hier:       hier,
		bp:         bp,
		conf:       conf,
		pf:         pf,
		rob:        make([]robEntry, cfg.ROBEntries),
		doneAt:     make([]uint64, cfg.ROBEntries),
		doneMin:    NoEvent,
		wake:       make([]uint64, cfg.ROBEntries*words),
		wakeWords:  words,
		readyBM:    make([]uint64, words),
		inflightBM: make([]uint64, words),
		pendBM:     make([]uint64, words),
		storeQ:     make([]sqEntry, max(1, cfg.ROBEntries)),
		fq:         make([]fqEntry, max(1, cfg.FetchQueue)),
		pfReqs:     make([]prefetch.Request, 0, pfReqsCap),
	}
	c.pfEx, _ = pf.(ExecObserver)
	c.nextSeq = 1
	return c
}

// BootArch starts the core from a mid-program architectural state — a
// fast-forward checkpoint captured by the functional emulator. Committed
// registers and the fetch PC are installed; every microarchitectural
// structure (caches, branch predictor, confidence estimator, prefetcher,
// ROB) stays cold, exactly as after a checkpoint restore in gem5-style
// methodology — warming those is the measurement protocol's job. It must be
// called before the first Cycle; calling it later would desynchronize the
// in-flight pipeline from the committed state.
func (c *Core) BootArch(a emu.Arch) {
	c.cregs = a.Regs
	if a.PC >= 0 && a.PC < c.prog.Len() {
		c.fetchPC = a.PC
	} else {
		c.fetchPC = -1
	}
	c.halted = a.Halted
}

// fqAt returns the i-th fetch-queue entry, oldest first. Ring indices stay
// in [0, 2·len) so a conditional subtract replaces the much slower modulo.
//
//bfetch:hotpath
func (c *Core) fqAt(i int) *fqEntry {
	j := c.fqHead + i
	if j >= len(c.fq) {
		j -= len(c.fq)
	}
	return &c.fq[j]
}

// sqAt returns the i-th queued store, oldest first: store number sqBase+i.
//
//bfetch:hotpath
func (c *Core) sqAt(i int) *sqEntry {
	j := c.sqHead + i
	if j >= len(c.storeQ) {
		j -= len(c.storeQ)
	}
	return &c.storeQ[j]
}

// Halted reports whether the program has committed HALT (or faulted).
func (c *Core) Halted() bool { return c.halted }

// Err returns the architectural fault that stopped the core, if any.
func (c *Core) Err() error { return c.err }

// Regs returns the committed architectural register file.
func (c *Core) Regs() [isa.NumRegs]int64 { return c.cregs }

// Hierarchy returns the core's cache stack.
func (c *Core) Hierarchy() *cache.Hierarchy { return c.hier }

// Cycle advances the core by one clock. The caller owns the global clock so
// multiple cores can share LLC and DRAM coherently.
//
//bfetch:hotpath
func (c *Core) Cycle(now uint64) {
	if c.halted {
		return
	}
	c.Stats.Cycles++
	if c.cfg.CPIStack {
		// Charge this cycle to exactly one CPI bucket, in the same block
		// that counted it: sum(Stats.CPI) == Stats.Cycles by construction.
		committed := c.Stats.Committed
		c.commit(now)
		c.chargeCycle(now, committed)
	} else {
		c.commit(now)
	}
	if c.halted {
		return
	}
	c.complete(now)
	c.issue(now)
	c.dispatch(now)
	c.fetch(now)
	c.prefetchTick(now)
}

//bfetch:hotpath
func (c *Core) entry(r ref) *robEntry {
	e := &c.rob[r.slot]
	if e.seq != r.seq || r.seq == 0 {
		return nil
	}
	return e
}

//bfetch:hotpath
func (c *Core) tailSlot() int {
	j := c.headSlot + c.count
	if j >= len(c.rob) {
		j -= len(c.rob)
	}
	return j
}

// ------------------------------------------------------ scheduling bitmaps --

//bfetch:hotpath
func bmSet(bm []uint64, s int) { bm[s>>6] |= 1 << (uint(s) & 63) }

//bfetch:hotpath
func bmClear(bm []uint64, s int) { bm[s>>6] &^= 1 << (uint(s) & 63) }

//bfetch:hotpath
func bmHas(bm []uint64, s int) bool { return bm[s>>6]&(1<<(uint(s)&63)) != 0 }

//bfetch:hotpath
func bmAny(bm []uint64) bool {
	//bfetch:bce
	for _, w := range bm {
		if w != 0 {
			return true
		}
	}
	return false
}

// bmIter walks a scheduling bitmap's set bits in sequence (age) order: ring
// order starting at headSlot. It snapshots one word at a time, so bits the
// caller (or a squash it triggers) clears in words not yet visited are
// skipped, while clears inside the current snapshot must be re-checked
// against the entry's state by the caller — complete() is the one site where
// that happens.
type bmIter struct {
	bm   []uint64
	w    uint64 // remaining bits of the current word
	wi   int    // current word index
	hw   int    // head word index
	hb   uint   // head bit within hw
	wrap bool   // scanning the wrapped segment [0, headSlot)
}

//bfetch:hotpath
func (it *bmIter) init(bm []uint64, head int) {
	it.bm = bm
	it.hw, it.hb = head>>6, uint(head)&63
	it.wi = it.hw
	it.w = bm[it.hw] &^ (1<<it.hb - 1)
	it.wrap = false
}

//bfetch:hotpath
func (it *bmIter) next() (int, bool) {
	for it.w == 0 {
		it.wi++
		if it.wrap {
			if it.wi > it.hw {
				return 0, false
			}
			it.w = it.bm[it.wi]
			if it.wi == it.hw {
				it.w &= 1<<it.hb - 1
			}
		} else if it.wi == len(it.bm) {
			it.wrap = true
			it.wi = -1 // restart just before word 0
		} else {
			it.w = it.bm[it.wi]
		}
	}
	s := it.wi<<6 + bits.TrailingZeros64(it.w)
	it.w &= it.w - 1
	return s, true
}

// ---------------------------------------------------------------- commit --

//bfetch:hotpath
func (c *Core) commit(now uint64) {
	for n := 0; n < c.cfg.Width && c.count > 0; n++ {
		e := &c.rob[c.headSlot]
		if e.state != sDone || c.doneAt[c.headSlot] > now {
			return
		}
		if e.faulted {
			// Once-per-run termination path, never reached in steady state.
			c.err = fmt.Errorf("cpu: fault at pc %#x (%s)", e.pc, e.inst) //bfetch:alloc-ok

			c.halted = true
			return
		}
		in := e.inst

		// Architectural effects.
		if in.HasDest() {
			c.cregs[in.DestReg()] = e.destVal
		}
		switch {
		case in.IsStore():
			// Stores commit in order: the queue head is this store.
			c.mem.WriteInt64(e.ea, c.storeQ[c.sqHead].data)
			c.hier.Store(e.ea, now)
			c.pf.OnAccess(prefetch.AccessInfo{PC: e.pc, Addr: e.ea, Write: true})
			c.Stats.StoresCommitted++
		case in.IsLoad():
			c.Stats.LoadsCommitted++
		case in.IsCondBranch():
			c.Stats.BranchesCommitted++
			if e.predTaken != e.actualTaken {
				c.Stats.BranchMispredicts++
			}
			c.bp.Update(e.pc, e.ghr, e.actualTaken, e.pred)
			c.conf.Update(e.pc, e.ghr, e.predTaken == e.actualTaken)
		case in.Op == isa.JR:
			c.bp.UpdateIndirect(e.pc, c.prog.PC(e.actualNext))
		}

		// Rename table release.
		if in.HasDest() {
			r := in.DestReg()
			if c.rat[r].seq == e.seq {
				c.rat[r] = ref{}
			}
		}

		next := uint64(0)
		if e.actualNext >= 0 && e.actualNext < c.prog.Len() {
			next = c.prog.PC(e.actualNext)
		}
		var targetPC uint64
		if in.IsDirect() {
			targetPC = c.prog.PC(in.Target)
		}
		c.pf.OnCommit(prefetch.CommitInfo{
			PC: e.pc, Inst: in, EA: e.ea, Taken: e.actualTaken, Next: next,
			TargetPC: targetPC, Regs: &c.cregs,
		})

		c.Stats.Committed++
		if in.IsStore() {
			if c.sqHead++; c.sqHead == len(c.storeQ) {
				c.sqHead = 0
			}
			c.sqN--
			c.sqBase++
			c.sqBuckDrop(e.ea) // a committed store always resolved its address
			c.sqAdvance()      // drained: loads blocked behind it may pass now
		}
		e.seq = 0
		if c.headSlot++; c.headSlot == len(c.rob) {
			c.headSlot = 0
		}
		c.count--

		if in.Op == isa.HALT {
			c.halted = true
			return
		}
	}
}

// -------------------------------------------------------------- complete --

//bfetch:hotpath
func (c *Core) complete(now uint64) {
	// Resolve completions oldest first, so a squash from an older branch
	// naturally invalidates younger resolutions: the age-order bitmap walk
	// replaces the old collect-sort-filter scratch list outright. A squash
	// clears the victims' in-flight bits, which the walk observes for words
	// not yet visited; bits already snapshotted are caught by re-testing
	// the in-flight bit (finish never schedules new completions, so nothing
	// can become done mid-walk). The walk reads doneAt, touches only the
	// entries that complete, and leaves doneMin at the earliest completion
	// still ahead.
	if now < c.doneMin {
		return
	}
	next := uint64(NoEvent)
	var it bmIter
	it.init(c.inflightBM, c.headSlot)
	for s, ok := it.next(); ok; s, ok = it.next() {
		if d := c.doneAt[s]; d > now {
			next = min(next, d)
			continue
		}
		if !bmHas(c.inflightBM, s) {
			continue // squashed earlier in this walk
		}
		bmClear(c.inflightBM, s)
		e := &c.rob[s]
		e.state = sDone
		c.finish(e, now)
	}
	c.doneMin = next
}

// schedule puts the entry in slot s in flight, completing at cycle at.
//
//bfetch:hotpath
func (c *Core) schedule(s int, at uint64) {
	c.doneAt[s] = at
	c.doneMin = min(c.doneMin, at)
	bmSet(c.inflightBM, s)
}

// finish applies completion effects: value broadcast and branch resolution.
//
//bfetch:hotpath
func (c *Core) finish(e *robEntry, now uint64) {
	in := e.inst
	if in.HasDest() {
		c.broadcast(e)
		if c.pfEx != nil {
			c.pfEx.OnExec(in.DestReg(), e.destVal, e.seq, now)
		}
	}
	if in.IsControl() && e.actualNext != e.predNext {
		c.recover(e, now)
	}
}

// broadcast wakes the consumers recorded in e's wakeup-matrix row. A bit
// may name a squashed slot or one reused since; the waiting-state and
// srcSeq checks skip those. Wakeup order does not matter: a woken entry
// only sets its readyBM bit.
//
//bfetch:hotpath
func (c *Core) broadcast(e *robEntry) {
	row := c.wake[e.slot*c.wakeWords : (e.slot+1)*c.wakeWords]
	for wi, w := range row {
		for ; w != 0; w &= w - 1 {
			s := wi<<6 + bits.TrailingZeros64(w)
			d := &c.rob[s]
			if d.seq == 0 || d.state != sWait {
				continue
			}
			for i := range d.srcSeq {
				if d.srcSeq[i] == e.seq {
					d.srcVal[i] = e.destVal
					d.nsrc--
				}
			}
			if d.nsrc == 0 {
				d.state = sReady
				bmSet(c.readyBM, s)
			}
		}
		row[wi] = 0
	}
}

// recover squashes everything younger than the resolving control
// instruction and redirects fetch.
//
//bfetch:hotpath
func (c *Core) recover(e *robEntry, now uint64) {
	for c.count > 0 {
		ts := c.tailSlot() - 1
		if ts < 0 {
			ts += len(c.rob)
		}
		t := &c.rob[ts]
		if t.seq <= e.seq {
			break
		}
		c.Stats.Squashed++
		if t.inst.IsLoad() && t.eaValid {
			// A speculative load that already reached the memory system:
			// its cache side-effects (fills, evictions) persist, as on
			// real hardware.
			c.Stats.WrongPathLoads++
		}
		if t.inst.IsStore() {
			// The store is still queued (stores leave only at commit);
			// give back its disambiguation-filter claim.
			if t.eaValid {
				c.sqBuckDrop(t.ea)
			} else {
				c.sqUnknown--
			}
		}
		if t.inst.HasDest() {
			// Undo the entry's rename; youngest first, so the table ends as
			// it stood right after e dispatched.
			c.rat[t.inst.DestReg()] = ref{slot: int(t.undoSlot), seq: t.undoSeq}
		}
		t.seq = 0
		bmClear(c.readyBM, ts)
		bmClear(c.inflightBM, ts)
		bmClear(c.pendBM, ts)
		c.count--
	}
	// The fetch queue holds only instructions younger than any ROB entry.
	c.Stats.Squashed += uint64(c.fqN)
	c.fqHead, c.fqN = 0, 0

	// Drop squashed stores from the disambiguation queue: they are the
	// tail from the branch's store number on. Squashed stores are younger
	// than every surviving load, so no surviving verdict can change — the
	// generation bump is belt-and-braces for a rare path.
	c.sqN = int(e.sqNum - c.sqBase)
	c.sqAdvance()

	// Drop the restored mappings to entries that committed while the
	// branch was in flight.
	for r := range c.rat {
		if c.entry(c.rat[r]) == nil {
			c.rat[r] = ref{}
		}
	}

	// Redirect fetch.
	if e.actualNext >= 0 && e.actualNext < c.prog.Len() {
		c.fetchPC = e.actualNext
	} else {
		c.fetchPC = -1 // fault propagates when/if e commits
	}
	c.fetchResumeAt = now + c.cfg.RedirectPenalty
	if e.inst.IsCondBranch() {
		c.specGHR = e.ghr.Shift(e.actualTaken)
	} else {
		c.specGHR = e.ghr
	}
}

// ----------------------------------------------------------------- issue --

func opLatency(op isa.Op, mulLat uint64) uint64 {
	switch op {
	case isa.MUL, isa.MULI:
		return mulLat
	default:
		return 1
	}
}

//bfetch:hotpath
func (c *Core) issue(now uint64) {
	ports := c.cfg.CachePorts

	// Blocked loads retry first (they already consumed an issue slot),
	// oldest first — the age-order walk doubles as the port arbiter. The
	// walk runs only when some parked load may pass (pendStale); a load that
	// finds no port leaves the flag set for the next cycle.
	var it bmIter
	if c.pendStale {
		c.pendStale = false
		it.init(c.pendBM, c.headSlot)
		for s, ok := it.next(); ok; s, ok = it.next() {
			e := &c.rob[s]
			if e.sqWait == c.sqGen {
				// Store queue unchanged since this load was last rejected:
				// the verdict cannot have moved, skip the rescan.
				continue
			}
			if ports == 0 {
				c.pendStale = true
				break
			}
			if c.tryLoad(e, now) {
				ports--
				bmClear(c.pendBM, s)
			}
		}
	}

	if !bmAny(c.readyBM) {
		return
	}
	// Oldest-first selection: the ring walk from headSlot visits ready
	// entries in sequence order directly, replacing the per-cycle
	// insertion sort over a ref list.
	issued := 0
	it.init(c.readyBM, c.headSlot)
	for s, ok := it.next(); ok && issued < c.cfg.Width; s, ok = it.next() {
		issued++
		bmClear(c.readyBM, s)
		c.execute(&c.rob[s], now, &ports)
	}
}

// execute starts one entry. Loads may divert to the pending list.
//
//bfetch:hotpath
func (c *Core) execute(e *robEntry, now uint64, ports *int) {
	in := e.inst
	e.state = sIssued
	switch {
	case in.IsLoad():
		e.ea = uint64(e.srcVal[0] + in.Imm)
		e.eaValid = true
		if *ports == 0 {
			// Parked for a port, not by a store-queue verdict: it must be
			// retried whatever the generation. sqGen only grows, so the
			// predecessor value can never match a current generation.
			e.sqWait = c.sqGen - 1
			c.pendStale = true
			bmSet(c.pendBM, e.slot)
			return
		}
		if !c.tryLoad(e, now) {
			bmSet(c.pendBM, e.slot)
			return
		}
		*ports--
		return // tryLoad put it in flight
	case in.IsStore():
		e.ea = uint64(e.srcVal[0] + in.Imm)
		e.eaValid = true
		*c.sqAt(int(e.sqNum - c.sqBase)) = sqEntry{ea: e.ea, data: e.srcVal[1], resolved: true}
		c.schedule(e.slot, now+1)
		// The queued store's address is now known: move its filter claim
		// from the unknown counter to its address bucket.
		c.sqUnknown--
		c.sqBuckAdd(e.ea)
		c.sqAdvance() // resolved: blocked loads can re-disambiguate
	case in.IsControl():
		e.actualTaken = emu.BranchTaken(in.Op, e.srcVal[0])
		switch {
		case in.Op == isa.JR:
			tgt, ok := c.prog.Index(uint64(e.srcVal[0]))
			if ok {
				e.actualNext = tgt
			} else {
				e.actualNext = -2
				e.faulted = true
			}
		case e.actualTaken:
			e.actualNext = in.Target
		default:
			e.actualNext = e.idx + 1
		}
		c.schedule(e.slot, now+1)
	default:
		v, ok := emu.Eval(in.Op, e.srcVal[0], e.srcVal[1], in.Imm)
		if !ok {
			e.faulted = true
		}
		e.destVal = v
		c.schedule(e.slot, now+opLatency(in.Op, c.cfg.MulLatency)-1)
	}
}

// tryLoad attempts to send a load to memory; returns false if blocked by
// disambiguation. A port must be available (checked by the caller).
//
//bfetch:hotpath
func (c *Core) tryLoad(e *robEntry, now uint64) bool {
	fwd, val, blocked := c.disambiguate(e)
	if blocked {
		e.sqWait = c.sqGen
		return false
	}
	if fwd {
		e.destVal = val
		c.schedule(e.slot, now+1)
		c.Stats.StoreForwards++
	} else {
		e.destVal = c.mem.ReadInt64(e.ea)
		var cl *cache.LoadClass
		if c.cfg.CPIStack {
			e.cl = cache.LoadClass{}
			e.memStart = now
			e.memClass = true
			cl = &e.cl
		}
		done, hit := c.hier.Load(e.ea, now, cl)
		c.schedule(e.slot, done)
		if hit {
			c.Stats.LoadL1Hits++
		} else {
			c.Stats.LoadL1Misses++
		}
		c.pf.OnAccess(prefetch.AccessInfo{PC: e.pc, Addr: e.ea, Hit: hit})
	}
	return true
}

// sqAdvance moves the store-queue generation, so every load parked under
// the old one is retried.
//
//bfetch:hotpath
func (c *Core) sqAdvance() {
	c.sqGen++
	c.pendStale = true
}

// sqBucket hashes an access address to a disambiguation filter bucket.
// Accesses are 8 bytes wide, so two that overlap (|a-b| ≤ 7) land in the
// same or an adjacent bucket — an empty three-bucket neighborhood proves a
// load conflicts with no resolved store in the queue.
//
//bfetch:hotpath
func sqBucket(ea uint64) int { return int(ea>>3) & 63 }

//bfetch:hotpath
func (c *Core) sqBuckAdd(ea uint64) {
	b := sqBucket(ea)
	c.sqBuck[b]++
	c.sqMask |= 1 << uint(b)
}

//bfetch:hotpath
func (c *Core) sqBuckDrop(ea uint64) {
	b := sqBucket(ea)
	if c.sqBuck[b]--; c.sqBuck[b] == 0 {
		c.sqMask &^= 1 << uint(b)
	}
}

// disambiguate scans the queued stores older than the load — store numbers
// [sqBase, e.sqNum) — youngest first. It returns forwarding data if the
// nearest older store to the exact address has its data, or blocked if any
// intervening store address is unknown or overlaps inexactly.
//
// The scan is guarded by the bucket filter: when every queued store has a
// resolved address and none lands in the load's three-bucket neighborhood,
// the queue provably holds no conflict and the answer is a constant-time
// miss. Bucket aliasing only causes a harmless fall-through to the scan.
//
//bfetch:hotpath
func (c *Core) disambiguate(e *robEntry) (fwd bool, val int64, blocked bool) {
	if c.sqUnknown == 0 && c.sqMask&bits.RotateLeft64(7, sqBucket(e.ea)-1) == 0 {
		return false, 0, false
	}
	n := int(e.sqNum - c.sqBase)
	j := c.sqHead + n - 1
	if j >= len(c.storeQ) {
		j -= len(c.storeQ)
	}
	for ; n > 0; n-- {
		s := &c.storeQ[j]
		if !s.resolved {
			return false, 0, true
		}
		if rangesOverlap(s.ea, e.ea) {
			if s.ea == e.ea {
				return true, s.data, false
			}
			return false, 0, true // partial overlap: wait for the store to drain
		}
		if j == 0 {
			j = len(c.storeQ)
		}
		j--
	}
	return false, 0, false
}

func rangesOverlap(a, b uint64) bool {
	return a < b+8 && b < a+8
}

// -------------------------------------------------------------- dispatch --

//bfetch:hotpath
func (c *Core) dispatch(now uint64) {
	for n := 0; n < c.cfg.Width; n++ {
		if c.fqN == 0 || c.count == len(c.rob) {
			return
		}
		// The ring slot stays intact until fetch refills it, after dispatch.
		f := c.fqAt(0)
		if f.fetchedAt+c.cfg.FrontEndDelay > now {
			return
		}
		if c.fqHead++; c.fqHead == len(c.fq) {
			c.fqHead = 0
		}
		c.fqN--

		seq := c.nextSeq
		c.nextSeq++
		slot := c.tailSlot()
		// Reset the recycled entry in place: zero it, then assign fields,
		// so no temporary entry is built and copied in.
		e := &c.rob[slot]
		*e = robEntry{}
		e.seq, e.slot, e.idx, e.pc, e.inst = seq, slot, f.idx, f.pc, c.prog.Insts[f.idx]
		e.predTaken, e.predNext, e.ghr, e.pred = f.predTaken, f.predNext, f.ghr, f.pred
		e.actualNext = f.idx + 1
		e.sqNum = c.sqBase + uint64(c.sqN)
		c.count++
		in := e.inst

		// Rename sources.
		var srcs [2]isa.Reg
		regs := in.SrcRegs(srcs[:0])
		for i, reg := range regs {
			if reg == isa.RZero {
				e.srcVal[i] = 0
				continue
			}
			m := c.rat[reg]
			p := c.entry(m)
			if p == nil {
				e.srcVal[i] = c.cregs[reg]
				continue
			}
			if p.state == sDone {
				e.srcVal[i] = p.destVal
				continue
			}
			c.wake[m.slot*c.wakeWords+slot>>6] |= 1 << (uint(slot) & 63)
			e.srcSeq[i] = m.seq
			e.nsrc++
		}

		// Rename destination.
		if in.HasDest() {
			d := in.DestReg()
			e.undoSlot, e.undoSeq = int32(c.rat[d].slot), c.rat[d].seq
			c.rat[d] = ref{slot: slot, seq: seq}
		}

		if in.IsStore() {
			c.sqN++
			c.sqAt(c.sqN - 1).resolved = false
			c.sqUnknown++ // address unknown until the store executes
		}

		// Control instructions feed the prefetcher's decoded-branch
		// register.
		if in.IsControl() {
			var target uint64
			if in.IsDirect() {
				target = c.prog.PC(in.Target)
			}
			var predNextPC uint64
			if f.predNext >= 0 && f.predNext < c.prog.Len() {
				predNextPC = c.prog.PC(f.predNext)
			}
			c.pf.OnDecode(prefetch.DecodeInfo{
				PC: f.pc, Op: in.Op, Target: target,
				PredTaken: f.predTaken, PredNext: predNextPC, GHR: uint64(f.ghr),
			})
		}

		// Instructions with no pending sources and no work are born done.
		if e.nsrc == 0 {
			switch {
			case in.Op == isa.NOP, in.Op == isa.HALT:
				e.state = sDone
				c.doneAt[slot] = now
			case in.Op == isa.JMP:
				e.state = sDone
				c.doneAt[slot] = now
				e.actualTaken = true
				e.actualNext = in.Target
			default:
				e.state = sReady
				bmSet(c.readyBM, slot)
			}
		}
	}
}

// ----------------------------------------------------------------- fetch --

//bfetch:hotpath
func (c *Core) fetch(now uint64) {
	if now < c.fetchResumeAt || c.fetchPC < 0 {
		return
	}
	for n := 0; n < c.cfg.Width; n++ {
		if c.fqN >= c.cfg.FetchQueue {
			return
		}
		idx := c.fetchPC
		if idx < 0 || idx >= c.prog.Len() {
			c.fetchPC = -1
			return
		}
		in := c.prog.Insts[idx]
		pc := c.prog.PC(idx)
		f := fqEntry{idx: idx, pc: pc, fetchedAt: now, predNext: idx + 1, ghr: c.specGHR}
		c.Stats.Fetched++

		redirect := false
		switch {
		case in.IsCondBranch():
			f.pred = c.bp.Lookup(pc, c.specGHR)
			f.predTaken = f.pred.Taken
			if f.predTaken {
				f.predNext = in.Target
				redirect = true
			}
			c.specGHR = c.specGHR.Shift(f.predTaken)
		case in.Op == isa.JMP:
			f.predTaken = true
			f.predNext = in.Target
			redirect = true
		case in.Op == isa.JR:
			f.predTaken = true
			if tgt, ok := c.bp.PredictIndirect(pc); ok {
				if tidx, valid := c.prog.Index(tgt); valid {
					f.predNext = tidx
					redirect = true
				} else {
					f.predNext = -1
				}
			} else {
				f.predNext = -1 // stall until the JR resolves
			}
		case in.Op == isa.HALT:
			f.predNext = -1
		}

		ft := c.fqHead + c.fqN
		if ft >= len(c.fq) {
			ft -= len(c.fq)
		}
		c.fq[ft] = f
		c.fqN++
		switch {
		case f.predNext == -1:
			c.fetchPC = -1
			return
		case redirect:
			c.fetchPC = f.predNext
			return // taken control ends the fetch group
		default:
			c.fetchPC = idx + 1
		}
	}
}

// ------------------------------------------------------------- prefetch --

//bfetch:hotpath
func (c *Core) prefetchTick(now uint64) {
	c.pfReqs = c.pf.AppendTick(c.pfReqs[:0], now)
	for _, r := range c.pfReqs {
		if !c.hier.Prefetch(r.Addr, r.LoadPC, now) {
			c.Stats.PrefetchDropped++
		}
	}
}

// ------------------------------------------------------------ next event --

// NoEvent is NextEvent's answer when the core can make no progress on its
// own: it is halted, or fully drained with fetch stalled (a program that ran
// off its end without HALT spins until the cycle bound either way).
const NoEvent = ^uint64(0)

// NextEvent returns the earliest cycle after now at which Cycle can do any
// work, assuming no external state changes. The contract backing the
// event-driven simulation loop: for every cycle t with now < t <
// NextEvent(now), Cycle(t) would be a no-op apart from the Stats.Cycles
// increment (and, with cfg.CPIStack, the matching one-bucket CPI charge) —
// so a caller may skip those cycles entirely (crediting the skipped range
// via AddIdleCycles, which replays the charges exactly) and produce
// bit-identical results to ticking every cycle.
//
// Each pipeline stage contributes its wake-up condition; anything that could
// act on the very next cycle (ready entries, a parked load that may pass on
// a retry, a busy prefetch engine) pins the next event to now+1. A load
// parked under an unchanged store-queue generation pins nothing: only a
// store resolving, draining or being squashed can free it, and each of
// those is itself an event below.
//
//bfetch:hotpath
func (c *Core) NextEvent(now uint64) uint64 {
	if c.halted {
		return NoEvent
	}
	// Issue has work queued, a parked load may pass, or a non-idle prefetch
	// engine ticks every cycle: no skipping.
	if bmAny(c.readyBM) || c.pendStale || !c.pf.Idle() {
		return now + 1
	}
	next := uint64(NoEvent)
	// Commit: the ROB head has completed and waits out its latency.
	if c.count > 0 {
		if c.rob[c.headSlot].state == sDone {
			next = min(next, max(now+1, c.doneAt[c.headSlot]))
		}
	}
	// Complete: the earliest in-flight completion. Age order is irrelevant
	// for a minimum, so this is a plain word scan; the bitmap invariant
	// guarantees every set bit is a live sIssued entry.
	for wi, w := range c.inflightBM {
		for ; w != 0; w &= w - 1 {
			next = min(next, max(now+1, c.doneAt[wi<<6+bits.TrailingZeros64(w)]))
		}
	}
	// Dispatch: the fetch-queue head clears the front-end delay (and a ROB
	// slot is free; a full ROB drains through commit, covered above).
	if c.fqN > 0 && c.count < len(c.rob) {
		next = min(next, max(now+1, c.fqAt(0).fetchedAt+c.cfg.FrontEndDelay))
	}
	// Fetch: resumes after a redirect once there is queue room (a full
	// queue drains through dispatch, covered above).
	if c.fetchPC >= 0 && c.fqN < c.cfg.FetchQueue {
		next = min(next, max(now+1, c.fetchResumeAt))
	}
	return next
}

// AddIdleCycles credits the skipped cycles [from, from+n): cycles the naive
// loop would have spent calling Cycle with no effect beyond the Stats.Cycles
// increment and (with cfg.CPIStack) the per-cycle bucket charge, which
// chargeGap replays as a segment walk.
//
//bfetch:hotpath
func (c *Core) AddIdleCycles(from, n uint64) {
	c.Stats.Cycles += n
	if c.cfg.CPIStack && n > 0 {
		c.chargeGap(from, from+n)
	}
}

// Run drives the core on its own private clock until it halts, commits
// maxInsts, or exceeds maxCycles; single-core convenience used by tests and
// examples. It returns the number of cycles consumed.
func (c *Core) Run(maxInsts, maxCycles uint64) (uint64, error) {
	start := c.Stats.Cycles
	for now := c.Stats.Cycles; !c.halted && c.Stats.Committed < maxInsts && c.Stats.Cycles-start < maxCycles; now++ {
		c.Cycle(now)
		if c.err != nil {
			break
		}
	}
	return c.Stats.Cycles - start, c.err
}
