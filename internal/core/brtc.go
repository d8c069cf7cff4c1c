package core

// The Branch Trace Cache (BrTC, §IV-B1) captures the dynamic control-flow
// sequence of the program: given a branch, a direction, and the target it
// leads to, the BrTC names the branch that ends the basic block being
// entered. This lets the lookahead engine hop from basic block to basic
// block, skipping every non-control instruction in between.
//
// Entries are direct-mapped and indexed by a hash of ⟨branch PC, predicted
// direction, target address⟩ (the target's inclusion gives indirect branches
// per-target entries, §IV-B1). Only commit-time updates are allowed, so the
// table never learns wrong-path control flow.

// pathKey identifies a basic block by how it is entered: the branch that
// precedes it, the direction that branch took, and the entry address.
type pathKey struct {
	branchPC uint64
	taken    bool
	targetPC uint64
}

// hash mixes the key into a table index (splitmix-style finalizer).
func (k pathKey) hash() uint64 {
	h := k.branchPC>>2 ^ (k.targetPC>>2)*0x9E3779B97F4A7C15
	if k.taken {
		h ^= 0xD1B54A32D192ED03
	}
	h ^= h >> 31
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	return h
}

type brtcEntry struct {
	valid bool
	tag   uint32 // low 32 bits of the preceding branch PC (§IV-B1)

	nextBranchPC uint64 // the branch ending the entered basic block
	nextTaken    uint64 // that branch's taken-target (static for direct,
	// last observed for indirect)
	nextIsCond bool
	nextIsJR   bool
}

// brtc is the Branch Trace Cache.
type brtc struct {
	entries []brtcEntry
	mask    uint64
}

// newBrTC builds an n-entry table; n is a power of two (Config.Validate).
func newBrTC(n int) *brtc {
	return &brtc{entries: make([]brtcEntry, n), mask: uint64(n - 1)}
}

func (b *brtc) lookup(k pathKey) (brtcEntry, bool) {
	e := b.entries[k.hash()&b.mask]
	if e.valid && e.tag == uint32(k.branchPC) {
		return e, true
	}
	return brtcEntry{}, false
}

func (b *brtc) update(k pathKey, next brtcEntry) {
	next.valid = true
	next.tag = uint32(k.branchPC)
	b.entries[k.hash()&b.mask] = next
}

// storageBits: tag (32) + next branch PC (32, low bits as in the paper's
// space optimization) + valid + 2 type bits per entry ≈ 66 bits, yielding
// Table I's 2.06 KB at 256 entries. The stored taken-target is recoverable
// from the next branch's static encoding for direct branches; indirect
// targets ride in the BTB-like portion counted here.
func (b *brtc) storageBits() int { return len(b.entries) * 66 }
