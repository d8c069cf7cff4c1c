// Threaded-code compilation of the functional emulator (DESIGN.md §5d).
//
// Compile pre-decodes a program once into a flat array of micro-op records —
// one per static instruction, with register indices, immediates and branch
// targets resolved at compile time — and fuses straight-line runs between
// control-flow boundaries into superblocks executed without per-instruction
// dispatch bookkeeping: inside a block there are no PC writes, halt checks,
// budget checks or retire-hook checks, and adjacent dependent instruction
// pairs (address-generation feeding a load or store, compare feeding a
// branch) collapse into single fused micro-ops, so the per-instruction cost
// is one jump-table dispatch or less.
//
// The compiled form is semantically bit-identical to the Step interpreter:
// anything the compiler cannot prove safe at compile time (an invalid
// opcode, an out-of-range register, a branch target that does not fit the
// packed record) compiles to a deopt micro-op, and every fault — plus every
// budget boundary that lands inside a superblock — funnels through the
// interpreter, so error values and architectural state match it exactly.
// The interpreter remains the ground truth and the instrumented path: a CPU
// with an OnRetire hook always interprets.
package emu

import (
	"math"
	"sync"

	"repro/internal/isa"
)

// Micro-op kinds. The first group mirrors the ISA one-to-one; the fused
// group executes two adjacent instructions per dispatch. kDeopt routes an
// instruction the compiler could not prove safe through the interpreter.
const (
	kNOP = uint8(iota)
	kADD
	kSUB
	kMUL
	kAND
	kOR
	kXOR
	kSLL
	kSRL
	kSRA
	kCMPEQ
	kCMPLT
	kCMPLE
	kADDI
	kMULI
	kANDI
	kORI
	kXORI
	kSLLI
	kSRLI
	kSRAI
	kCMPEQI
	kCMPLTI
	kMOVI
	kLD
	kST

	// Terminators.
	kBEQZ
	kBNEZ
	kBLTZ
	kBGEZ
	kJMP
	kJR
	kHALT
	kDeopt

	// Fused body pairs: one dispatch executes two adjacent instructions, the
	// first from (rd,rs,rt,imm) and the second from (rd2,rs2,rt2,imm2), with
	// the second's operands read after the first's write — so dependent and
	// independent pairs share one uniform semantics and fusion needs no
	// operand preconditions. Entering at the second instruction of a pair
	// executes its unfused record, so fusion is invisible to control flow.
	// The set is chosen from measured dynamic pair frequencies over the
	// workload suite (ld+ld and addi+addi alone are >25% of dynamic pairs).
	// The pairs, then the triples, form contiguous ranges: run derives a
	// record's advance from them, with kADDI_ST first.
	kADDI_ST
	kLD_ADDI
	kADDI2
	kLD_LD
	kADD_ADD
	kLD_ADD
	kADD_LD
	kADD_SUB
	kLD_ANDI
	kADD_ADDI
	kADD_MUL
	kANDI_ADD
	kLD_MUL
	kSLLI_ADD
	kMUL_ADD
	kLD_SLLI

	// Fused body triples: three adjacent instructions per dispatch, same
	// post-write operand semantics as the pairs. The set covers the
	// workload suite's hottest straight-line idioms — the Horner step
	// (mul,ld,add), stencil/record gathers (ld,ld,ld), reduction chains
	// (add,add,add) and store-plus-pointer-bump tails (st,addi,addi).
	kMUL_LD_ADD
	kLD_LD_LD
	kADD_ADD_ADD
	kST_ADDI_ADDI

	// Fused terminators: a body op feeding a conditional branch (the
	// decrement-and-branch loop back-edge and compare-and-branch idioms)
	// executes as one record covering two instructions. They must stay the
	// last kinds so isTerm can test them with one compare.
	kADDI_BNEZ
	kSUB_BLTZ
	kCMPLT_BNEZ
)

// isTerm reports whether a micro-op kind ends a superblock.
func isTerm(k uint8) bool {
	return (k >= kBEQZ && k <= kDeopt) || k >= kADDI_BNEZ
}

// cop is one pre-decoded micro-op record. Operand register indices are
// validated at compile time, so the engine indexes the register file with a
// masked load and no bounds check. adv is the number of static instructions
// the record covers (2 for fused pairs).
type cop struct {
	kind          uint8
	adv           uint8
	rd, rs, rt    uint8
	rd2, rs2, rt2 uint8
	rd3, rs3, rt3 uint8
	next          int32 // fallthrough instruction index (idx+adv, past fused ops)
	target        int32 // taken-branch instruction index
	imm           int64
	imm2          int64 // second immediate of a fused pair or triple
	imm3          int64 // third immediate of a fused triple
}

// Compiled is the threaded-code form of one program: ops parallel to
// Prog.Insts, plus the superblock table term, where term[i] is the index of
// the first terminator (control op, HALT, or deopt) at or after i — the
// instructions in [i, term[i]) are a straight-line run with no control
// transfer, executed as one superblock. Compiled is immutable after
// construction and safe to share across goroutines.
type Compiled struct {
	prog *isa.Program
	ops  []cop
	term []int32
}

var compileCache sync.Map // *isa.Program -> *Compiled

// Compile returns the threaded-code form of prog, building it at most once
// per Program per process: repeated emulations of one workload (checkpoint
// misses, fast-forwards, differential runs) share one decode.
func Compile(prog *isa.Program) *Compiled {
	if k, ok := compileCache.Load(prog); ok {
		return k.(*Compiled)
	}
	k := compile(prog)
	if prev, raced := compileCache.LoadOrStore(prog, k); raced {
		return prev.(*Compiled)
	}
	return k
}

func compile(prog *isa.Program) *Compiled {
	n := len(prog.Insts)
	k := &Compiled{
		prog: prog,
		ops:  make([]cop, n),
		term: make([]int32, n),
	}
	for i, in := range prog.Insts {
		k.ops[i] = compileInst(in, i)
	}
	// term: backward scan; a block starting anywhere extends to the nearest
	// following terminator, or runs off the end of the program (term == n).
	// Computed once before fusion (pair boundaries) and again after it
	// (fused terminators shorten the blocks that fall into them).
	k.scanTerm()
	fuse(k)
	k.scanTerm()
	return k
}

func (k *Compiled) scanTerm() {
	next := int32(len(k.ops))
	for i := len(k.ops) - 1; i >= 0; i-- {
		if isTerm(k.ops[i].kind) {
			next = int32(i)
		}
		k.term[i] = next
	}
}

// fuseBody maps adjacent body-op kind pairs to their fused micro-op. No
// operand conditions: fused semantics read the second op's sources after the
// first op's write, matching sequential execution for any operand overlap.
var fuseBody = map[[2]uint8]uint8{
	{kLD, kLD}:     kLD_LD,
	{kADDI, kADDI}: kADDI2,
	{kADD, kADD}:   kADD_ADD,
	{kLD, kADD}:    kLD_ADD,
	{kADD, kLD}:    kADD_LD,
	{kADD, kSUB}:   kADD_SUB,
	{kLD, kANDI}:   kLD_ANDI,
	{kADD, kADDI}:  kADD_ADDI,
	{kADD, kMUL}:   kADD_MUL,
	{kANDI, kADD}:  kANDI_ADD,
	{kLD, kMUL}:    kLD_MUL,
	{kSLLI, kADD}:  kSLLI_ADD,
	{kMUL, kADD}:   kMUL_ADD,
	{kLD, kSLLI}:   kLD_SLLI,
	{kADDI, kST}:   kADDI_ST,
	{kLD, kADDI}:   kLD_ADDI,
}

// fuseTriple maps three adjacent body-op kinds to their fused micro-op.
var fuseTriple = map[[3]uint8]uint8{
	{kMUL, kLD, kADD}:   kMUL_LD_ADD,
	{kLD, kLD, kLD}:     kLD_LD_LD,
	{kADD, kADD, kADD}:  kADD_ADD_ADD,
	{kST, kADDI, kADDI}: kST_ADDI_ADDI,
}

// fuseTerm maps a body op followed by its block's conditional branch to a
// fused terminator covering both instructions.
var fuseTerm = map[[2]uint8]uint8{
	{kADDI, kBNEZ}:  kADDI_BNEZ,
	{kSUB, kBLTZ}:   kSUB_BLTZ,
	{kCMPLT, kBNEZ}: kCMPLT_BNEZ,
}

// fuse collapses adjacent instruction groups into single micro-ops: body
// triples and pairs inside a superblock (greedy, longest first), and
// body-op+branch pairs at its end. Later records of a group are left intact
// so branches and JRs that land on them still execute correctly; only
// fall-through entry takes the fused path.
func fuse(k *Compiled) {
	for i := 0; i+1 < len(k.ops); i++ {
		a, b := k.ops[i], k.ops[i+1]
		if i+2 < len(k.ops) && int32(i+2) < k.term[i] {
			c := k.ops[i+2]
			if kind := fuseTriple[[3]uint8{a.kind, b.kind, c.kind}]; kind != 0 {
				f := a
				f.kind = kind
				f.adv = 3
				f.next = int32(i + 3)
				f.rd2, f.rs2, f.rt2, f.imm2 = b.rd, b.rs, b.rt, b.imm
				f.rd3, f.rs3, f.rt3, f.imm3 = c.rd, c.rs, c.rt, c.imm
				k.ops[i] = f
				i += 2 // the triple is consumed
				continue
			}
		}
		var kind uint8
		switch {
		case int32(i+1) < k.term[i]: // both body ops of one block
			kind = fuseBody[[2]uint8{a.kind, b.kind}]
		case int32(i+1) == k.term[i]: // b is the branch terminating a's block
			kind = fuseTerm[[2]uint8{a.kind, b.kind}]
		}
		if kind == 0 {
			continue
		}
		f := a
		f.kind = kind
		f.adv = 2
		f.next = int32(i + 2)
		f.rd2, f.rs2, f.rt2, f.imm2 = b.rd, b.rs, b.rt, b.imm
		f.target = b.target // body ops carry no target; branches do
		k.ops[i] = f
		i++ // the pair is consumed; never re-fuse its second element
	}
}

// pcDeopt is a sentinel next-PC: route one instruction through the
// interpreter (faults and unprovable encodings). Compile guarantees no real
// branch target collides with it.
const pcDeopt = math.MinInt32

// regOK reports whether an operand register index is in range; anything
// else deopts so the interpreter reproduces its exact behavior.
func regOK(r isa.Reg) bool { return r < isa.NumRegs }

func targetOK(t int) bool { return t > math.MinInt32 && t <= math.MaxInt32 }

var opKind = [...]uint8{
	isa.NOP: kNOP, isa.ADD: kADD, isa.SUB: kSUB, isa.MUL: kMUL,
	isa.AND: kAND, isa.OR: kOR, isa.XOR: kXOR,
	isa.SLL: kSLL, isa.SRL: kSRL, isa.SRA: kSRA,
	isa.CMPEQ: kCMPEQ, isa.CMPLT: kCMPLT, isa.CMPLE: kCMPLE,
	isa.ADDI: kADDI, isa.MULI: kMULI, isa.ANDI: kANDI, isa.ORI: kORI,
	isa.XORI: kXORI, isa.SLLI: kSLLI, isa.SRLI: kSRLI, isa.SRAI: kSRAI,
	isa.CMPEQI: kCMPEQI, isa.CMPLTI: kCMPLTI, isa.MOVI: kMOVI,
	isa.LD: kLD, isa.ST: kST,
	isa.BEQZ: kBEQZ, isa.BNEZ: kBNEZ, isa.BLTZ: kBLTZ, isa.BGEZ: kBGEZ,
	isa.JMP: kJMP, isa.JR: kJR, isa.HALT: kHALT,
}

// compileInst pre-decodes one instruction. Unknown opcodes, out-of-range
// registers and oversized targets compile to kDeopt: the engine hands the
// instruction to the interpreter, which reproduces the exact error (or
// panic) the uncompiled path would have produced.
func compileInst(in isa.Inst, idx int) cop {
	o := cop{
		kind: kDeopt, adv: 1,
		rd: uint8(in.Rd), rs: uint8(in.Rs), rt: uint8(in.Rt),
		next: int32(idx + 1), imm: in.Imm,
	}
	if !regOK(in.Rd) || !regOK(in.Rs) || !regOK(in.Rt) || int(in.Op) >= len(opKind) {
		return o
	}
	if in.Op != isa.NOP && opKind[in.Op] == kNOP {
		return o // unmapped opcode (defensive: opKind gaps read as zero)
	}
	o.kind = opKind[in.Op]
	// Writes to r31 have no architectural effect; loads to r31 read sparse
	// memory, which has no side effects either. Pre-resolve to a no-op.
	// (isa.Inst.HasDest is false for an r31 destination, so classify by op.)
	switch in.Op {
	case isa.NOP, isa.ST, isa.BEQZ, isa.BNEZ, isa.BLTZ, isa.BGEZ, isa.JMP, isa.JR, isa.HALT:
	default:
		if in.Rd == isa.RZero {
			o.kind = kNOP
		}
	}
	if in.IsDirect() {
		if !targetOK(in.Target) {
			o.kind = kDeopt
			return o
		}
		o.target = int32(in.Target)
	}
	return o
}

// run executes up to maxInsts instructions of compiled code, maintaining
// exactly the interpreter's architectural state machine: c.PC and c.Retired
// are consistent at every return, and any boundary the fast path cannot
// handle exactly — a fault, an unprovable encoding, or a budget that ends
// inside a superblock — is delegated to the interpreter, the ground truth.
//
//bfetch:hotpath
func (k *Compiled) run(c *CPU, maxInsts uint64) (uint64, error) {
	ops := k.ops
	nops := len(ops)
	regs := &c.Regs
	mm := c.Mem
	var n uint64
	for n < maxInsts && !c.Halted {
		pc := c.PC
		if pc < 0 || pc >= nops {
			return n, c.Step() // canonical "pc index out of range" error
		}
		t := int(k.term[pc])
		// Instructions this superblock will retire: the body plus its
		// terminator — which covers two when fused with the op feeding it,
		// and none when the block runs off the program end.
		need := uint64(t - pc)
		if t < nops {
			need += uint64(ops[t].adv)
		}
		if rem := maxInsts - n; need > rem {
			// The budget ends inside the superblock: single-step the tail
			// on the interpreter, which shares our state machine.
			for rem > 0 && !c.Halted {
				if err := c.Step(); err != nil {
					return n, err
				}
				n++
				rem--
			}
			return n, nil
		}

		// Superblock body: straight-line micro-ops, no per-instruction
		// bookkeeping, fused pairs retiring two instructions per dispatch.
		// Indexing the reslice blk (len t) by i < t lets the compiler drop
		// the per-dispatch bounds check.
		blk := ops[:t]
		for i := pc; i < t; {
			o := &blk[i]
			switch o.kind {
			case kNOP:
			case kADD:
				regs[o.rd&31] = regs[o.rs&31] + regs[o.rt&31]
			case kSUB:
				regs[o.rd&31] = regs[o.rs&31] - regs[o.rt&31]
			case kMUL:
				regs[o.rd&31] = regs[o.rs&31] * regs[o.rt&31]
			case kAND:
				regs[o.rd&31] = regs[o.rs&31] & regs[o.rt&31]
			case kOR:
				regs[o.rd&31] = regs[o.rs&31] | regs[o.rt&31]
			case kXOR:
				regs[o.rd&31] = regs[o.rs&31] ^ regs[o.rt&31]
			case kSLL:
				regs[o.rd&31] = shiftL(regs[o.rs&31], regs[o.rt&31])
			case kSRL:
				regs[o.rd&31] = shiftRL(regs[o.rs&31], regs[o.rt&31])
			case kSRA:
				regs[o.rd&31] = shiftRA(regs[o.rs&31], regs[o.rt&31])
			case kCMPEQ:
				regs[o.rd&31] = b2i(regs[o.rs&31] == regs[o.rt&31])
			case kCMPLT:
				regs[o.rd&31] = b2i(regs[o.rs&31] < regs[o.rt&31])
			case kCMPLE:
				regs[o.rd&31] = b2i(regs[o.rs&31] <= regs[o.rt&31])
			case kADDI:
				regs[o.rd&31] = regs[o.rs&31] + o.imm
			case kMULI:
				regs[o.rd&31] = regs[o.rs&31] * o.imm
			case kANDI:
				regs[o.rd&31] = regs[o.rs&31] & o.imm
			case kORI:
				regs[o.rd&31] = regs[o.rs&31] | o.imm
			case kXORI:
				regs[o.rd&31] = regs[o.rs&31] ^ o.imm
			case kSLLI:
				regs[o.rd&31] = shiftL(regs[o.rs&31], o.imm)
			case kSRLI:
				regs[o.rd&31] = shiftRL(regs[o.rs&31], o.imm)
			case kSRAI:
				regs[o.rd&31] = shiftRA(regs[o.rs&31], o.imm)
			case kCMPEQI:
				regs[o.rd&31] = b2i(regs[o.rs&31] == o.imm)
			case kCMPLTI:
				regs[o.rd&31] = b2i(regs[o.rs&31] < o.imm)
			case kMOVI:
				regs[o.rd&31] = o.imm
			// Memory cases expand mem.Load64/Store64 probe-plus-fallback
			// inline: the probe is inlinable, and keeping the Read64/Write64
			// fallback call at the (rarely taken) miss edge is what lets the
			// compiler inline the hit path into this loop.
			case kLD:
				ea := uint64(regs[o.rs&31] + o.imm)
				v, ok := mm.Load64(ea)
				if !ok {
					v = mm.Read64(ea)
				}
				regs[o.rd&31] = int64(v)
			case kST:
				ea := uint64(regs[o.rs&31] + o.imm)
				if !mm.Store64(ea, uint64(regs[o.rt&31])) {
					mm.Write64(ea, uint64(regs[o.rt&31]))
				}
			case kADDI_ST:
				regs[o.rd&31] = regs[o.rs&31] + o.imm
				ea := uint64(regs[o.rs2&31] + o.imm2)
				if !mm.Store64(ea, uint64(regs[o.rt2&31])) {
					mm.Write64(ea, uint64(regs[o.rt2&31]))
				}
			case kLD_ADDI:
				ea := uint64(regs[o.rs&31] + o.imm)
				v, ok := mm.Load64(ea)
				if !ok {
					v = mm.Read64(ea)
				}
				regs[o.rd&31] = int64(v)
				regs[o.rd2&31] = regs[o.rs2&31] + o.imm2
			case kADDI2:
				regs[o.rd&31] = regs[o.rs&31] + o.imm
				regs[o.rd2&31] = regs[o.rs2&31] + o.imm2
			case kLD_LD:
				ea := uint64(regs[o.rs&31] + o.imm)
				v, ok := mm.Load64(ea)
				if !ok {
					v = mm.Read64(ea)
				}
				regs[o.rd&31] = int64(v)
				ea = uint64(regs[o.rs2&31] + o.imm2)
				v, ok = mm.Load64(ea)
				if !ok {
					v = mm.Read64(ea)
				}
				regs[o.rd2&31] = int64(v)
			case kADD_ADD:
				regs[o.rd&31] = regs[o.rs&31] + regs[o.rt&31]
				regs[o.rd2&31] = regs[o.rs2&31] + regs[o.rt2&31]
			case kLD_ADD:
				ea := uint64(regs[o.rs&31] + o.imm)
				v, ok := mm.Load64(ea)
				if !ok {
					v = mm.Read64(ea)
				}
				regs[o.rd&31] = int64(v)
				regs[o.rd2&31] = regs[o.rs2&31] + regs[o.rt2&31]
			case kADD_LD:
				regs[o.rd&31] = regs[o.rs&31] + regs[o.rt&31]
				ea := uint64(regs[o.rs2&31] + o.imm2)
				v, ok := mm.Load64(ea)
				if !ok {
					v = mm.Read64(ea)
				}
				regs[o.rd2&31] = int64(v)
			case kADD_SUB:
				regs[o.rd&31] = regs[o.rs&31] + regs[o.rt&31]
				regs[o.rd2&31] = regs[o.rs2&31] - regs[o.rt2&31]
			case kLD_ANDI:
				ea := uint64(regs[o.rs&31] + o.imm)
				v, ok := mm.Load64(ea)
				if !ok {
					v = mm.Read64(ea)
				}
				regs[o.rd&31] = int64(v)
				regs[o.rd2&31] = regs[o.rs2&31] & o.imm2
			case kADD_ADDI:
				regs[o.rd&31] = regs[o.rs&31] + regs[o.rt&31]
				regs[o.rd2&31] = regs[o.rs2&31] + o.imm2
			case kADD_MUL:
				regs[o.rd&31] = regs[o.rs&31] + regs[o.rt&31]
				regs[o.rd2&31] = regs[o.rs2&31] * regs[o.rt2&31]
			case kANDI_ADD:
				regs[o.rd&31] = regs[o.rs&31] & o.imm
				regs[o.rd2&31] = regs[o.rs2&31] + regs[o.rt2&31]
			case kLD_MUL:
				ea := uint64(regs[o.rs&31] + o.imm)
				v, ok := mm.Load64(ea)
				if !ok {
					v = mm.Read64(ea)
				}
				regs[o.rd&31] = int64(v)
				regs[o.rd2&31] = regs[o.rs2&31] * regs[o.rt2&31]
			case kSLLI_ADD:
				regs[o.rd&31] = shiftL(regs[o.rs&31], o.imm)
				regs[o.rd2&31] = regs[o.rs2&31] + regs[o.rt2&31]
			case kMUL_ADD:
				regs[o.rd&31] = regs[o.rs&31] * regs[o.rt&31]
				regs[o.rd2&31] = regs[o.rs2&31] + regs[o.rt2&31]
			case kLD_SLLI:
				ea := uint64(regs[o.rs&31] + o.imm)
				v, ok := mm.Load64(ea)
				if !ok {
					v = mm.Read64(ea)
				}
				regs[o.rd&31] = int64(v)
				regs[o.rd2&31] = shiftL(regs[o.rs2&31], o.imm2)
			case kMUL_LD_ADD:
				regs[o.rd&31] = regs[o.rs&31] * regs[o.rt&31]
				ea := uint64(regs[o.rs2&31] + o.imm2)
				v, ok := mm.Load64(ea)
				if !ok {
					v = mm.Read64(ea)
				}
				regs[o.rd2&31] = int64(v)
				regs[o.rd3&31] = regs[o.rs3&31] + regs[o.rt3&31]
			case kLD_LD_LD:
				ea := uint64(regs[o.rs&31] + o.imm)
				v, ok := mm.Load64(ea)
				if !ok {
					v = mm.Read64(ea)
				}
				regs[o.rd&31] = int64(v)
				ea = uint64(regs[o.rs2&31] + o.imm2)
				v, ok = mm.Load64(ea)
				if !ok {
					v = mm.Read64(ea)
				}
				regs[o.rd2&31] = int64(v)
				ea = uint64(regs[o.rs3&31] + o.imm3)
				v, ok = mm.Load64(ea)
				if !ok {
					v = mm.Read64(ea)
				}
				regs[o.rd3&31] = int64(v)
			case kADD_ADD_ADD:
				regs[o.rd&31] = regs[o.rs&31] + regs[o.rt&31]
				regs[o.rd2&31] = regs[o.rs2&31] + regs[o.rt2&31]
				regs[o.rd3&31] = regs[o.rs3&31] + regs[o.rt3&31]
			case kST_ADDI_ADDI:
				ea := uint64(regs[o.rs&31] + o.imm)
				if !mm.Store64(ea, uint64(regs[o.rt&31])) {
					mm.Write64(ea, uint64(regs[o.rt&31]))
				}
				regs[o.rd2&31] = regs[o.rs2&31] + o.imm2
				regs[o.rd3&31] = regs[o.rs3&31] + o.imm3
			}
			// Advance by the record's instruction count, derived from the
			// kind byte already in hand: loading o.adv here would put a
			// memory access on the loop-carried dependency chain and
			// dominate dispatch latency.
			switch {
			case o.kind >= kMUL_LD_ADD:
				i += 3
			case o.kind >= kADDI_ST:
				i += 2
			default:
				i++
			}
		}
		n += uint64(t - pc)
		c.Retired += uint64(t - pc)
		if t == nops {
			// The block runs off the end of the program; the next iteration
			// reports the interpreter's pc-range error.
			c.PC = t
			continue
		}

		// Terminator.
		o := &ops[t]
		next := o.next
		switch o.kind {
		case kBEQZ:
			if regs[o.rs&31] == 0 {
				next = o.target
			}
		case kBNEZ:
			if regs[o.rs&31] != 0 {
				next = o.target
			}
		case kBLTZ:
			if regs[o.rs&31] < 0 {
				next = o.target
			}
		case kBGEZ:
			if regs[o.rs&31] >= 0 {
				next = o.target
			}
		case kJMP:
			next = o.target
		case kJR:
			if tgt, ok := c.Prog.Index(uint64(regs[o.rs&31])); ok {
				next = int32(tgt)
			} else {
				next = pcDeopt
			}
		case kHALT:
			c.Halted = true
		case kADDI_BNEZ:
			regs[o.rd&31] = regs[o.rs&31] + o.imm
			if regs[o.rs2&31] != 0 {
				next = o.target
			}
		case kSUB_BLTZ:
			regs[o.rd&31] = regs[o.rs&31] - regs[o.rt&31]
			if regs[o.rs2&31] < 0 {
				next = o.target
			}
		case kCMPLT_BNEZ:
			regs[o.rd&31] = b2i(regs[o.rs&31] < regs[o.rt&31])
			if regs[o.rs2&31] != 0 {
				next = o.target
			}
		default: // kDeopt
			next = pcDeopt
		}
		if next == pcDeopt {
			// Fault or unprovable encoding: one interpreter Step reproduces
			// the exact error (and state, if it somehow succeeds).
			c.PC = t
			if err := c.Step(); err != nil {
				return n, err
			}
			n++
			continue
		}
		c.PC = int(next)
		n += uint64(o.adv)
		c.Retired += uint64(o.adv)
	}
	return n, nil
}
