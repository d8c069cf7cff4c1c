package isa

import (
	"fmt"
	"sort"
)

// Builder assembles a Program in code, with forward-referenceable labels.
// It is the programmatic twin of the text assembler and is what the workload
// generators use.
//
// Usage:
//
//	b := isa.NewBuilder()
//	loop := b.NewLabel()
//	b.Movi(isa.R(1), 0)
//	b.Bind(loop)
//	b.Ld(isa.R(2), isa.R(1), 0)
//	b.Addi(isa.R(1), isa.R(1), 8)
//	b.Cmplti(isa.R(3), isa.R(1), 4096)
//	b.Bnez(isa.R(3), loop)
//	b.Halt()
//	prog := b.MustProgram()
type Builder struct {
	insts    []Inst
	labels   []int          // label id -> instruction index, -1 if unbound
	names    map[string]int // optional label names -> label id
	patches  []patch
	textBase uint64
}

type patch struct {
	inst  int
	label Label
}

// Label is a branch target handle issued by a Builder.
type Label int

// NewBuilder returns an empty Builder with the default text base.
func NewBuilder() *Builder {
	return &Builder{names: make(map[string]int), textBase: DefaultTextBase}
}

// SetTextBase overrides the text segment base address.
func (b *Builder) SetTextBase(base uint64) { b.textBase = base }

// NewLabel allocates an unbound label.
func (b *Builder) NewLabel() Label {
	b.labels = append(b.labels, -1)
	return Label(len(b.labels) - 1)
}

// NamedLabel allocates (or returns the existing) label with the given name.
func (b *Builder) NamedLabel(name string) Label {
	if id, ok := b.names[name]; ok {
		return Label(id)
	}
	l := b.NewLabel()
	b.names[name] = int(l)
	return l
}

// Bind binds a label to the next emitted instruction.
func (b *Builder) Bind(l Label) {
	if b.labels[l] != -1 {
		panic(fmt.Sprintf("isa: label %d bound twice", l))
	}
	b.labels[l] = len(b.insts)
}

// Here returns a label bound to the next emitted instruction.
func (b *Builder) Here() Label {
	l := b.NewLabel()
	b.Bind(l)
	return l
}

// Len returns the number of instructions emitted so far.
func (b *Builder) Len() int { return len(b.insts) }

// Emit appends a raw instruction.
func (b *Builder) Emit(in Inst) *Builder {
	b.insts = append(b.insts, in)
	return b
}

func (b *Builder) emitBranch(op Op, rs Reg, l Label) *Builder {
	b.patches = append(b.patches, patch{inst: len(b.insts), label: l})
	return b.Emit(Inst{Op: op, Rs: rs})
}

// ALU register-register forms.

func (b *Builder) Add(rd, rs, rt Reg) *Builder { return b.Emit(Inst{Op: ADD, Rd: rd, Rs: rs, Rt: rt}) }
func (b *Builder) Sub(rd, rs, rt Reg) *Builder { return b.Emit(Inst{Op: SUB, Rd: rd, Rs: rs, Rt: rt}) }
func (b *Builder) Mul(rd, rs, rt Reg) *Builder { return b.Emit(Inst{Op: MUL, Rd: rd, Rs: rs, Rt: rt}) }
func (b *Builder) And(rd, rs, rt Reg) *Builder { return b.Emit(Inst{Op: AND, Rd: rd, Rs: rs, Rt: rt}) }
func (b *Builder) Or(rd, rs, rt Reg) *Builder  { return b.Emit(Inst{Op: OR, Rd: rd, Rs: rs, Rt: rt}) }
func (b *Builder) Xor(rd, rs, rt Reg) *Builder { return b.Emit(Inst{Op: XOR, Rd: rd, Rs: rs, Rt: rt}) }
func (b *Builder) Sll(rd, rs, rt Reg) *Builder { return b.Emit(Inst{Op: SLL, Rd: rd, Rs: rs, Rt: rt}) }
func (b *Builder) Srl(rd, rs, rt Reg) *Builder { return b.Emit(Inst{Op: SRL, Rd: rd, Rs: rs, Rt: rt}) }
func (b *Builder) Sra(rd, rs, rt Reg) *Builder { return b.Emit(Inst{Op: SRA, Rd: rd, Rs: rs, Rt: rt}) }

func (b *Builder) Cmpeq(rd, rs, rt Reg) *Builder {
	return b.Emit(Inst{Op: CMPEQ, Rd: rd, Rs: rs, Rt: rt})
}
func (b *Builder) Cmplt(rd, rs, rt Reg) *Builder {
	return b.Emit(Inst{Op: CMPLT, Rd: rd, Rs: rs, Rt: rt})
}
func (b *Builder) Cmple(rd, rs, rt Reg) *Builder {
	return b.Emit(Inst{Op: CMPLE, Rd: rd, Rs: rs, Rt: rt})
}

// ALU immediate forms.

func (b *Builder) Addi(rd, rs Reg, imm int64) *Builder {
	return b.Emit(Inst{Op: ADDI, Rd: rd, Rs: rs, Imm: imm})
}
func (b *Builder) Muli(rd, rs Reg, imm int64) *Builder {
	return b.Emit(Inst{Op: MULI, Rd: rd, Rs: rs, Imm: imm})
}
func (b *Builder) Andi(rd, rs Reg, imm int64) *Builder {
	return b.Emit(Inst{Op: ANDI, Rd: rd, Rs: rs, Imm: imm})
}
func (b *Builder) Ori(rd, rs Reg, imm int64) *Builder {
	return b.Emit(Inst{Op: ORI, Rd: rd, Rs: rs, Imm: imm})
}
func (b *Builder) Xori(rd, rs Reg, imm int64) *Builder {
	return b.Emit(Inst{Op: XORI, Rd: rd, Rs: rs, Imm: imm})
}
func (b *Builder) Slli(rd, rs Reg, imm int64) *Builder {
	return b.Emit(Inst{Op: SLLI, Rd: rd, Rs: rs, Imm: imm})
}
func (b *Builder) Srli(rd, rs Reg, imm int64) *Builder {
	return b.Emit(Inst{Op: SRLI, Rd: rd, Rs: rs, Imm: imm})
}
func (b *Builder) Srai(rd, rs Reg, imm int64) *Builder {
	return b.Emit(Inst{Op: SRAI, Rd: rd, Rs: rs, Imm: imm})
}
func (b *Builder) Cmpeqi(rd, rs Reg, imm int64) *Builder {
	return b.Emit(Inst{Op: CMPEQI, Rd: rd, Rs: rs, Imm: imm})
}
func (b *Builder) Cmplti(rd, rs Reg, imm int64) *Builder {
	return b.Emit(Inst{Op: CMPLTI, Rd: rd, Rs: rs, Imm: imm})
}
func (b *Builder) Movi(rd Reg, imm int64) *Builder {
	return b.Emit(Inst{Op: MOVI, Rd: rd, Imm: imm})
}

// Mov copies rs into rd (encoded as addi rd, rs, 0).
func (b *Builder) Mov(rd, rs Reg) *Builder { return b.Addi(rd, rs, 0) }

// Nop emits a no-op.
func (b *Builder) Nop() *Builder { return b.Emit(Inst{Op: NOP}) }

// Memory.

// Ld emits ld rd, disp(base).
func (b *Builder) Ld(rd, base Reg, disp int64) *Builder {
	return b.Emit(Inst{Op: LD, Rd: rd, Rs: base, Imm: disp})
}

// St emits st rt, disp(base).
func (b *Builder) St(rt, base Reg, disp int64) *Builder {
	return b.Emit(Inst{Op: ST, Rt: rt, Rs: base, Imm: disp})
}

// Control flow.

func (b *Builder) Beqz(rs Reg, l Label) *Builder { return b.emitBranch(BEQZ, rs, l) }
func (b *Builder) Bnez(rs Reg, l Label) *Builder { return b.emitBranch(BNEZ, rs, l) }
func (b *Builder) Bltz(rs Reg, l Label) *Builder { return b.emitBranch(BLTZ, rs, l) }
func (b *Builder) Bgez(rs Reg, l Label) *Builder { return b.emitBranch(BGEZ, rs, l) }
func (b *Builder) Jmp(l Label) *Builder          { return b.emitBranch(JMP, RZero, l) }
func (b *Builder) Jr(rs Reg) *Builder            { return b.Emit(Inst{Op: JR, Rs: rs}) }
func (b *Builder) Halt() *Builder                { return b.Emit(Inst{Op: HALT}) }

// Program resolves labels and returns the assembled, validated program.
func (b *Builder) Program() (*Program, error) {
	for _, p := range b.patches {
		idx := b.labels[p.label]
		if idx == -1 {
			return nil, fmt.Errorf("isa: unbound label %d referenced by instruction %d", p.label, p.inst)
		}
		b.insts[p.inst].Target = idx
	}
	// Names are checked in sorted order, so the unbound name an error
	// reports does not depend on map iteration.
	names := make([]string, 0, len(b.names))
	for name := range b.names {
		names = append(names, name)
	}
	sort.Strings(names)
	symbols := make(map[string]int, len(names))
	for _, name := range names {
		id := b.names[name]
		if b.labels[id] == -1 {
			return nil, fmt.Errorf("isa: unbound named label %q", name)
		}
		symbols[name] = b.labels[id]
	}
	prog := &Program{
		Insts:    append([]Inst(nil), b.insts...),
		Symbols:  symbols,
		TextBase: b.textBase,
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	return prog, nil
}

// MustProgram is Program but panics on error; for use in generators whose
// output is fixed at development time.
func (b *Builder) MustProgram() *Program {
	p, err := b.Program()
	if err != nil {
		panic(err)
	}
	return p
}
