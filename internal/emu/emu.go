// Package emu is the functional (architectural) emulator for the repository's
// ISA. It executes programs in order with no timing model and serves three
// roles: the ground truth for differential testing of the out-of-order core,
// the instrumentation vehicle for the paper's characterization figures
// (Figures 3 and 7), and a fast way for workload authors to sanity-check
// kernels.
package emu

import (
	"errors"
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
)

// Retire describes one architecturally executed instruction, delivered to
// the OnRetire hook after its effects are applied.
type Retire struct {
	Index int    // instruction index
	PC    uint64 // byte address of the instruction
	Inst  isa.Inst
	EA    uint64 // effective address (memory ops only)
	Taken bool   // control ops: whether control transferred
	Next  int    // instruction index executed next
}

// CPU is a functional core bound to one program and address space.
type CPU struct {
	Prog *isa.Program
	Mem  *mem.Memory

	Regs [isa.NumRegs]int64
	PC   int // instruction index

	Halted  bool
	Retired uint64

	// OnRetire, when non-nil, observes every executed instruction. A hooked
	// CPU always runs on the interpreter (DESIGN.md §5d).
	OnRetire func(r Retire)
}

// New returns a CPU at the program entry with zeroed registers.
func New(p *isa.Program, m *mem.Memory) *CPU {
	return &CPU{Prog: p, Mem: m}
}

// ErrHalted is returned by Step once the program has executed HALT.
var ErrHalted = errors.New("emu: cpu halted")

// Arch is the architectural state of a functional core: everything needed
// to resume execution mid-program, and nothing microarchitectural. It is
// the unit of state a fast-forward checkpoint captures (internal/ckpt); the
// out-of-order core can boot from it (cpu.Core.BootArch). The memory image
// travels separately — Arch deliberately holds no reference to it, so one
// Arch can pair with many copy-on-write forks of the same image.
type Arch struct {
	Regs    [isa.NumRegs]int64
	PC      int // next instruction index
	Halted  bool
	Retired uint64
}

// Arch exports the CPU's current architectural state.
func (c *CPU) Arch() Arch {
	return Arch{Regs: c.Regs, PC: c.PC, Halted: c.Halted, Retired: c.Retired}
}

// SetArch overwrites the CPU's architectural state, resuming from a
// checkpoint. The bound memory image must be the one that state was
// captured against (or an equivalent fork) for execution to be meaningful.
func (c *CPU) SetArch(a Arch) {
	c.Regs, c.PC, c.Halted, c.Retired = a.Regs, a.PC, a.Halted, a.Retired
}

// Step executes one instruction. It returns ErrHalted after HALT and a
// descriptive error on an invalid PC or indirect-jump target; the error
// constructors are hatched — they fire at most once per run, on the way out.
//
//bfetch:hotpath
func (c *CPU) Step() error {
	if c.Halted {
		return ErrHalted
	}
	if c.PC < 0 || c.PC >= len(c.Prog.Insts) {
		return fmt.Errorf("emu: pc index %d out of range", c.PC) //bfetch:alloc-ok
	}
	idx := c.PC
	in := c.Prog.Insts[idx]
	next := idx + 1
	var (
		ea    uint64
		taken bool
	)

	switch in.Op {
	case isa.NOP:
	case isa.ADD:
		c.set(in.Rd, c.Regs[in.Rs]+c.Regs[in.Rt])
	case isa.SUB:
		c.set(in.Rd, c.Regs[in.Rs]-c.Regs[in.Rt])
	case isa.MUL:
		c.set(in.Rd, c.Regs[in.Rs]*c.Regs[in.Rt])
	case isa.AND:
		c.set(in.Rd, c.Regs[in.Rs]&c.Regs[in.Rt])
	case isa.OR:
		c.set(in.Rd, c.Regs[in.Rs]|c.Regs[in.Rt])
	case isa.XOR:
		c.set(in.Rd, c.Regs[in.Rs]^c.Regs[in.Rt])
	case isa.SLL:
		c.set(in.Rd, shiftL(c.Regs[in.Rs], c.Regs[in.Rt]))
	case isa.SRL:
		c.set(in.Rd, shiftRL(c.Regs[in.Rs], c.Regs[in.Rt]))
	case isa.SRA:
		c.set(in.Rd, shiftRA(c.Regs[in.Rs], c.Regs[in.Rt]))
	case isa.CMPEQ:
		c.set(in.Rd, b2i(c.Regs[in.Rs] == c.Regs[in.Rt]))
	case isa.CMPLT:
		c.set(in.Rd, b2i(c.Regs[in.Rs] < c.Regs[in.Rt]))
	case isa.CMPLE:
		c.set(in.Rd, b2i(c.Regs[in.Rs] <= c.Regs[in.Rt]))
	case isa.ADDI:
		c.set(in.Rd, c.Regs[in.Rs]+in.Imm)
	case isa.MULI:
		c.set(in.Rd, c.Regs[in.Rs]*in.Imm)
	case isa.ANDI:
		c.set(in.Rd, c.Regs[in.Rs]&in.Imm)
	case isa.ORI:
		c.set(in.Rd, c.Regs[in.Rs]|in.Imm)
	case isa.XORI:
		c.set(in.Rd, c.Regs[in.Rs]^in.Imm)
	case isa.SLLI:
		c.set(in.Rd, shiftL(c.Regs[in.Rs], in.Imm))
	case isa.SRLI:
		c.set(in.Rd, shiftRL(c.Regs[in.Rs], in.Imm))
	case isa.SRAI:
		c.set(in.Rd, shiftRA(c.Regs[in.Rs], in.Imm))
	case isa.CMPEQI:
		c.set(in.Rd, b2i(c.Regs[in.Rs] == in.Imm))
	case isa.CMPLTI:
		c.set(in.Rd, b2i(c.Regs[in.Rs] < in.Imm))
	case isa.MOVI:
		c.set(in.Rd, in.Imm)
	case isa.LD:
		ea = uint64(c.Regs[in.Rs] + in.Imm)
		c.set(in.Rd, c.Mem.ReadInt64(ea))
	case isa.ST:
		ea = uint64(c.Regs[in.Rs] + in.Imm)
		c.Mem.WriteInt64(ea, c.Regs[in.Rt])
	case isa.BEQZ:
		taken = c.Regs[in.Rs] == 0
	case isa.BNEZ:
		taken = c.Regs[in.Rs] != 0
	case isa.BLTZ:
		taken = c.Regs[in.Rs] < 0
	case isa.BGEZ:
		taken = c.Regs[in.Rs] >= 0
	case isa.JMP:
		taken = true
	case isa.JR:
		taken = true
		tgt, ok := c.Prog.Index(uint64(c.Regs[in.Rs]))
		if !ok {
			return fmt.Errorf("emu: jr %s to invalid text address %#x", in.Rs, uint64(c.Regs[in.Rs])) //bfetch:alloc-ok
		}
		next = tgt
	case isa.HALT:
		c.Halted = true
	default:
		return fmt.Errorf("emu: invalid opcode %v at %d", in.Op, idx) //bfetch:alloc-ok
	}

	if taken && in.Op != isa.JR {
		next = in.Target
	}
	c.PC = next
	c.Retired++
	if c.OnRetire != nil {
		c.OnRetire(Retire{
			Index: idx, PC: c.Prog.PC(idx), Inst: in, EA: ea, Taken: taken, Next: next,
		})
	}
	return nil
}

// Run executes up to maxInsts instructions, stopping early at HALT. It
// returns the number of instructions executed and the first error other than
// a clean halt.
//
// Run dispatches to the threaded-code engine (Compile) unless the CPU is
// instrumented with OnRetire: the hook's contract is one callback per
// retired instruction with the full Retire record, which the compiled form
// deliberately does not materialize. Both engines maintain the same
// architectural state machine, so runs may even alternate engines
// mid-program.
func (c *CPU) Run(maxInsts uint64) (uint64, error) {
	if c.OnRetire == nil {
		return Compile(c.Prog).run(c, maxInsts)
	}
	var n uint64
	for n < maxInsts && !c.Halted {
		if err := c.Step(); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

func (c *CPU) set(r isa.Reg, v int64) {
	if r != isa.RZero {
		c.Regs[r] = v
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Shift semantics: shift amounts are taken modulo 64, matching typical
// hardware; both simulators must agree, so they share these helpers.

func shiftL(v, by int64) int64  { return v << (uint64(by) & 63) }
func shiftRL(v, by int64) int64 { return int64(uint64(v) >> (uint64(by) & 63)) }
func shiftRA(v, by int64) int64 { return v >> (uint64(by) & 63) }

// Eval applies one instruction's ALU semantics to operand values, shared
// with the out-of-order core so the two simulators cannot diverge on
// arithmetic. Memory and control ops are handled by each core's own logic.
//
//bfetch:hotpath
func Eval(op isa.Op, rs, rt, imm int64) (int64, bool) {
	switch op {
	case isa.ADD:
		return rs + rt, true
	case isa.SUB:
		return rs - rt, true
	case isa.MUL:
		return rs * rt, true
	case isa.AND:
		return rs & rt, true
	case isa.OR:
		return rs | rt, true
	case isa.XOR:
		return rs ^ rt, true
	case isa.SLL:
		return shiftL(rs, rt), true
	case isa.SRL:
		return shiftRL(rs, rt), true
	case isa.SRA:
		return shiftRA(rs, rt), true
	case isa.CMPEQ:
		return b2i(rs == rt), true
	case isa.CMPLT:
		return b2i(rs < rt), true
	case isa.CMPLE:
		return b2i(rs <= rt), true
	case isa.ADDI:
		return rs + imm, true
	case isa.MULI:
		return rs * imm, true
	case isa.ANDI:
		return rs & imm, true
	case isa.ORI:
		return rs | imm, true
	case isa.XORI:
		return rs ^ imm, true
	case isa.SLLI:
		return shiftL(rs, imm), true
	case isa.SRLI:
		return shiftRL(rs, imm), true
	case isa.SRAI:
		return shiftRA(rs, imm), true
	case isa.CMPEQI:
		return b2i(rs == imm), true
	case isa.CMPLTI:
		return b2i(rs < imm), true
	case isa.MOVI:
		return imm, true
	}
	return 0, false
}

// BranchTaken evaluates a conditional branch's condition against a register
// value; shared with the out-of-order core.
func BranchTaken(op isa.Op, rs int64) bool {
	switch op {
	case isa.BEQZ:
		return rs == 0
	case isa.BNEZ:
		return rs != 0
	case isa.BLTZ:
		return rs < 0
	case isa.BGEZ:
		return rs >= 0
	case isa.JMP, isa.JR:
		return true
	}
	return false
}
