package core

// The Memory History Table (MHT, §IV-B2) is B-Fetch's largest structure. One
// entry corresponds to a basic block (indexed by the same ⟨branch,
// direction, target⟩ hash as the BrTC) and holds up to three Register
// History subentries — one per unique source register used by the block's
// loads. Each subentry records (Figure 6):
//
//	RegIdx    the source register
//	RegVal    the register's value when the preceding branch committed
//	Offset    EA − RegVal: the learned displacement, folding together the
//	          static load offset and the register's in-block variation
//	          (Equation 1)
//	neg/posPatt  bit vectors for additional same-base loads in the block,
//	          at cache-block granularity (Listing 2)
//	LoopCnt/LoopDelta  per-iteration EA stride for loop prefetching
//	          (Equation 3)
//
// The prefetch address is RegVal_now + Offset + LoopCnt×LoopDelta, where
// RegVal_now is read from the ARF at lookahead time (Equation 2/3).

const (
	regHistPerEntry = 3
	pattBits        = 5 // ±5 cache blocks, 256 B each way (§V-B1's milc note)
	offsetBits      = 16
	loopDeltaBits   = 16
)

const (
	offsetMax    = 1<<(offsetBits-1) - 1
	offsetMin    = -(1 << (offsetBits - 1))
	loopDeltaMax = 1<<(loopDeltaBits-1) - 1
	loopDeltaMin = -(1 << (loopDeltaBits - 1))
)

type regHist struct {
	valid          bool
	regIdx         uint8
	regVal         int64 // simulator keeps full width; hardware stores 32 bits
	offset         int64
	negPatt        uint8
	posPatt        uint8
	loopDelta      int64
	loopDeltaValid bool

	// loadPC attributes prefetches to the load this subentry learned from,
	// for the per-load filter (hardware stores a 10-bit hash).
	loadPC uint64
	// lastEA supports LoopDelta learning (EA difference across consecutive
	// executions); transient learning state, counted inside the entry
	// budget like the paper's LoopDelta field.
	lastEA   uint64
	firstEA  uint64 // first EA seen this block visit, for patt learning
	visitSeq uint64 // which block visit firstEA belongs to
}

type mhtEntry struct {
	valid bool
	tag   uint32 // low 32 bits of the preceding branch PC
	regs  [regHistPerEntry]regHist
}

type mht struct {
	entries []mhtEntry
	mask    uint64
}

// newMHT builds an n-entry table; n is a power of two (Config.Validate).
func newMHT(n int) *mht {
	return &mht{entries: make([]mhtEntry, n), mask: uint64(n - 1)}
}

func (m *mht) lookup(k pathKey) *mhtEntry {
	e := &m.entries[k.hash()&m.mask]
	if e.valid && e.tag == uint32(k.branchPC) {
		return e
	}
	return nil
}

// lookupAlloc returns the entry for k, recycling the slot if another block
// owns it.
func (m *mht) lookupAlloc(k pathKey) *mhtEntry {
	e := &m.entries[k.hash()&m.mask]
	if !e.valid || e.tag != uint32(k.branchPC) {
		*e = mhtEntry{valid: true, tag: uint32(k.branchPC)}
	}
	return e
}

// regsFor returns the subentry for register r, allocating one of the three
// slots if needed; nil when the entry is saturated with other registers
// (the paper found three sufficient, §IV-B2).
func (e *mhtEntry) regsFor(r uint8, alloc bool) *regHist {
	for i := range e.regs {
		if e.regs[i].valid && e.regs[i].regIdx == r {
			return &e.regs[i]
		}
	}
	if !alloc {
		return nil
	}
	for i := range e.regs {
		if !e.regs[i].valid {
			e.regs[i] = regHist{valid: true, regIdx: r}
			return &e.regs[i]
		}
	}
	return nil
}

// learn records one committed load in the block entered via k: base register
// r held snapVal when the preceding branch committed and the load accessed
// ea. visitSeq distinguishes block visits for the same-base pattern fields.
//
//bfetch:hotpath
func (m *mht) learn(k pathKey, r uint8, snapVal int64, ea uint64, loadPC uint64, visitSeq uint64) {
	e := m.lookupAlloc(k)
	h := e.regsFor(r, true)
	if h == nil {
		return
	}
	offset := int64(ea) - snapVal
	if offset < offsetMin || offset > offsetMax {
		// Hardware's 16-bit offset cannot represent this relationship;
		// invalidate so no bogus prefetches are generated from it.
		h.valid = false
		return
	}

	if h.visitSeq == visitSeq && h.firstEA != 0 {
		// A second load off the same base within one block visit: record
		// the block-granular delta in the pos/neg pattern vectors instead
		// of burning another subentry (Listing 2). The Offset field is
		// still updated — the paper updates it on every memory-instruction
		// execution (§IV-B2), so the block's last load wins, which makes
		// the stored displacement track the block's leading reference in
		// stencil-style code.
		delta := (int64(ea) >> 6) - (int64(h.firstEA) >> 6)
		switch {
		case delta > 0 && delta <= pattBits:
			h.posPatt |= 1 << (delta - 1)
		case delta < 0 && -delta <= pattBits:
			h.negPatt |= 1 << (-delta - 1)
		}
		h.offset = offset
		h.loadPC = loadPC
		return
	}

	// First load off this base in this block visit.
	if h.lastEA != 0 {
		ld := int64(ea) - int64(h.lastEA)
		if ld >= loopDeltaMin && ld <= loopDeltaMax && ld != 0 {
			h.loopDelta = ld
			h.loopDeltaValid = true
		} else {
			h.loopDeltaValid = false
		}
	}
	h.lastEA = ea
	h.firstEA = ea
	h.visitSeq = visitSeq
	h.offset = offset
	h.regVal = snapVal
	h.loadPC = loadPC
}

// storageBits: Figure 6's entry layout — 32-bit branch tag plus three
// 85-bit register-history subentries (5+32+16+5+5+1+5+16) = 287 bits,
// giving Table I's 4.5 KB at 128 entries.
func (m *mht) storageBits() int { return len(m.entries) * (32 + regHistPerEntry*85) }
