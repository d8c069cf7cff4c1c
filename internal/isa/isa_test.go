package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestRegString(t *testing.T) {
	if got := R(7).String(); got != "r7" {
		t.Errorf("R(7).String() = %q, want r7", got)
	}
	if RZero != 31 {
		t.Errorf("RZero = %d, want 31", RZero)
	}
}

func TestRPanicsOutOfRange(t *testing.T) {
	for _, n := range []int{-1, 32, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("R(%d) did not panic", n)
				}
			}()
			R(n)
		}()
	}
}

func TestOpStringsUnique(t *testing.T) {
	seen := map[string]Op{}
	for op := Op(0); op < numOps; op++ {
		s := op.String()
		if s == "" {
			t.Fatalf("op %d has empty name", op)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("ops %v and %v share name %q", prev, op, s)
		}
		seen[s] = op
	}
}

func TestClassification(t *testing.T) {
	tests := []struct {
		in                      Inst
		cond, control, load, st bool
	}{
		{Inst{Op: BEQZ, Rs: 1}, true, true, false, false},
		{Inst{Op: BNEZ, Rs: 1}, true, true, false, false},
		{Inst{Op: BLTZ, Rs: 1}, true, true, false, false},
		{Inst{Op: BGEZ, Rs: 1}, true, true, false, false},
		{Inst{Op: JMP}, false, true, false, false},
		{Inst{Op: JR, Rs: 2}, false, true, false, false},
		{Inst{Op: LD, Rd: 1, Rs: 2}, false, false, true, false},
		{Inst{Op: ST, Rt: 1, Rs: 2}, false, false, false, true},
		{Inst{Op: ADD, Rd: 1, Rs: 2, Rt: 3}, false, false, false, false},
		{Inst{Op: HALT}, false, false, false, false},
	}
	for _, tt := range tests {
		if got := tt.in.IsCondBranch(); got != tt.cond {
			t.Errorf("%v IsCondBranch = %v, want %v", tt.in, got, tt.cond)
		}
		if got := tt.in.IsControl(); got != tt.control {
			t.Errorf("%v IsControl = %v, want %v", tt.in, got, tt.control)
		}
		if got := tt.in.IsLoad(); got != tt.load {
			t.Errorf("%v IsLoad = %v, want %v", tt.in, got, tt.load)
		}
		if got := tt.in.IsStore(); got != tt.st {
			t.Errorf("%v IsStore = %v, want %v", tt.in, got, tt.st)
		}
		if got := tt.in.IsMem(); got != (tt.load || tt.st) {
			t.Errorf("%v IsMem = %v", tt.in, got)
		}
	}
}

func TestHasDest(t *testing.T) {
	if (Inst{Op: ADD, Rd: 1, Rs: 2, Rt: 3}).HasDest() != true {
		t.Error("add r1 should have dest")
	}
	if (Inst{Op: ADD, Rd: RZero, Rs: 2, Rt: 3}).HasDest() {
		t.Error("add to r31 should not count as a dest")
	}
	if (Inst{Op: ST, Rt: 1, Rs: 2}).HasDest() {
		t.Error("store has no dest")
	}
	if (Inst{Op: BEQZ, Rs: 1}).HasDest() {
		t.Error("branch has no dest")
	}
	if !(Inst{Op: LD, Rd: 4, Rs: 2}).HasDest() {
		t.Error("load has a dest")
	}
}

func TestSrcRegs(t *testing.T) {
	tests := []struct {
		in   Inst
		want []Reg
	}{
		{Inst{Op: ADD, Rd: 1, Rs: 2, Rt: 3}, []Reg{2, 3}},
		{Inst{Op: ADDI, Rd: 1, Rs: 2}, []Reg{2}},
		{Inst{Op: MOVI, Rd: 1}, nil},
		{Inst{Op: LD, Rd: 1, Rs: 2}, []Reg{2}},
		{Inst{Op: ST, Rt: 3, Rs: 2}, []Reg{2, 3}},
		{Inst{Op: BEQZ, Rs: 5}, []Reg{5}},
		{Inst{Op: JMP}, nil},
		{Inst{Op: JR, Rs: 6}, []Reg{6}},
		{Inst{Op: HALT}, nil},
	}
	for _, tt := range tests {
		got := tt.in.SrcRegs(nil)
		if len(got) != len(tt.want) {
			t.Errorf("%v SrcRegs = %v, want %v", tt.in, got, tt.want)
			continue
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Errorf("%v SrcRegs = %v, want %v", tt.in, got, tt.want)
				break
			}
		}
	}
}

func TestProgramPCIndexRoundTrip(t *testing.T) {
	p := &Program{Insts: make([]Inst, 100), TextBase: DefaultTextBase}
	for i := 0; i < 100; i++ {
		pc := p.PC(i)
		j, ok := p.Index(pc)
		if !ok || j != i {
			t.Fatalf("Index(PC(%d)) = %d,%v", i, j, ok)
		}
	}
	if _, ok := p.Index(p.TextBase - 4); ok {
		t.Error("address below text base should not resolve")
	}
	if _, ok := p.Index(p.TextBase + 1); ok {
		t.Error("unaligned address should not resolve")
	}
	if _, ok := p.Index(p.PC(100)); ok {
		t.Error("address past end should not resolve")
	}
}

func TestValidate(t *testing.T) {
	good := &Program{Insts: []Inst{{Op: MOVI, Rd: 1, Imm: 5}, {Op: HALT}}, TextBase: DefaultTextBase}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
	bad := &Program{Insts: []Inst{{Op: BEQZ, Rs: 1, Target: 7}}, TextBase: DefaultTextBase}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range branch target accepted")
	}
	empty := &Program{TextBase: DefaultTextBase}
	if err := empty.Validate(); err == nil {
		t.Error("empty program accepted")
	}
	badReg := &Program{Insts: []Inst{{Op: ADD, Rd: 40}}, TextBase: DefaultTextBase}
	if err := badReg.Validate(); err == nil {
		t.Error("register out of range accepted")
	}
}

func TestBuilderForwardAndBackwardLabels(t *testing.T) {
	b := NewBuilder()
	fwd := b.NewLabel()
	b.Movi(R(1), 3)
	back := b.Here()
	b.Addi(R(1), R(1), -1)
	b.Bnez(R(1), back)
	b.Jmp(fwd)
	b.Nop() // skipped
	b.Bind(fwd)
	b.Halt()
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	if p.Insts[2].Target != 1 {
		t.Errorf("backward branch target = %d, want 1", p.Insts[2].Target)
	}
	if p.Insts[3].Target != 5 {
		t.Errorf("forward jump target = %d, want 5", p.Insts[3].Target)
	}
}

func TestBuilderUnboundLabel(t *testing.T) {
	b := NewBuilder()
	l := b.NewLabel()
	b.Jmp(l)
	if _, err := b.Program(); err == nil {
		t.Error("unbound label accepted")
	}
}

// TestBuilderUnboundNamesSorted checks that with two unbound named labels
// every build reports the same one, the first in sorted order, rather than
// whichever map iteration reaches first.
func TestBuilderUnboundNamesSorted(t *testing.T) {
	for i := 0; i < 50; i++ {
		b := NewBuilder()
		b.NamedLabel("beta")
		b.NamedLabel("alpha")
		b.Halt()
		_, err := b.Program()
		if err == nil || !strings.Contains(err.Error(), `"alpha"`) {
			t.Fatalf("build %d: error %v, want the unbound name \"alpha\"", i, err)
		}
	}
}

func TestBuilderDoubleBindPanics(t *testing.T) {
	b := NewBuilder()
	l := b.Here()
	b.Nop()
	defer func() {
		if recover() == nil {
			t.Error("double Bind did not panic")
		}
	}()
	b.Bind(l)
}

func TestStaticStats(t *testing.T) {
	b := NewBuilder()
	l := b.Here()
	b.Ld(R(1), R(2), 0)
	b.St(R(1), R(2), 8)
	b.Addi(R(2), R(2), 16)
	b.Bnez(R(1), l)
	b.Jmp(l)
	b.Halt()
	p := b.MustProgram()
	s := p.StaticStats()
	if s.Loads != 1 || s.Stores != 1 || s.Branches != 1 || s.Jumps != 1 || s.Total != 6 {
		t.Errorf("stats = %+v", s)
	}
}

// Property: every constructible instruction's String() is parseable by the
// assembler (when embedded in a program where its target exists), and the
// parsed instruction equals the original.
func TestQuickInstStringRoundTrip(t *testing.T) {
	f := func(opRaw uint8, rdRaw, rsRaw, rtRaw uint8, imm int16) bool {
		op := Op(opRaw % uint8(numOps))
		in := Inst{
			Op:  op,
			Rd:  Reg(rdRaw % NumRegs),
			Rs:  Reg(rsRaw % NumRegs),
			Rt:  Reg(rtRaw % NumRegs),
			Imm: int64(imm),
			// Target 0 keeps branches valid in a 1+ instruction program.
		}
		src := in.String() + "\nhalt\n"
		p, err := Assemble(src)
		if err != nil {
			t.Logf("assemble %q: %v", src, err)
			return false
		}
		got := p.Insts[0]
		return normalize(got) == normalize(in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// normalize zeroes fields that an opcode does not encode, because String()
// legitimately drops them.
func normalize(in Inst) Inst {
	out := Inst{Op: in.Op}
	switch in.Op {
	case ADD, SUB, MUL, AND, OR, XOR, SLL, SRL, SRA, CMPEQ, CMPLT, CMPLE:
		out.Rd, out.Rs, out.Rt = in.Rd, in.Rs, in.Rt
	case ADDI, MULI, ANDI, ORI, XORI, SLLI, SRLI, SRAI, CMPEQI, CMPLTI:
		out.Rd, out.Rs, out.Imm = in.Rd, in.Rs, in.Imm
	case MOVI:
		out.Rd, out.Imm = in.Rd, in.Imm
	case LD:
		out.Rd, out.Rs, out.Imm = in.Rd, in.Rs, in.Imm
	case ST:
		out.Rt, out.Rs, out.Imm = in.Rt, in.Rs, in.Imm
	case BEQZ, BNEZ, BLTZ, BGEZ:
		out.Rs, out.Target = in.Rs, in.Target
	case JMP:
		out.Target = in.Target
	case JR:
		out.Rs = in.Rs
	}
	return out
}
