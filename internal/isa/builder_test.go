package isa

import (
	"reflect"
	"sort"
	"testing"
)

// TestBuilderMatchesAssembler builds one instruction with each of the
// Builder's instruction-emitting methods and checks it against the text
// assembler's encoding of the same mnemonic. Registers and immediates are
// distinct, so a method that swaps or drops an operand field fails. Branch
// targets are label "top", bound at instruction 0. The table must name
// every method that returns *Builder, Emit (which both share) aside.
func TestBuilderMatchesAssembler(t *testing.T) {
	r1, r2, r3 := R(1), R(2), R(3)
	cases := map[string]struct {
		build func(b *Builder, top Label)
		asm   string
	}{
		"Add":    {func(b *Builder, _ Label) { b.Add(r1, r2, r3) }, "add r1, r2, r3"},
		"Sub":    {func(b *Builder, _ Label) { b.Sub(r1, r2, r3) }, "sub r1, r2, r3"},
		"Mul":    {func(b *Builder, _ Label) { b.Mul(r1, r2, r3) }, "mul r1, r2, r3"},
		"And":    {func(b *Builder, _ Label) { b.And(r1, r2, r3) }, "and r1, r2, r3"},
		"Or":     {func(b *Builder, _ Label) { b.Or(r1, r2, r3) }, "or r1, r2, r3"},
		"Xor":    {func(b *Builder, _ Label) { b.Xor(r1, r2, r3) }, "xor r1, r2, r3"},
		"Sll":    {func(b *Builder, _ Label) { b.Sll(r1, r2, r3) }, "sll r1, r2, r3"},
		"Srl":    {func(b *Builder, _ Label) { b.Srl(r1, r2, r3) }, "srl r1, r2, r3"},
		"Sra":    {func(b *Builder, _ Label) { b.Sra(r1, r2, r3) }, "sra r1, r2, r3"},
		"Cmpeq":  {func(b *Builder, _ Label) { b.Cmpeq(r1, r2, r3) }, "cmpeq r1, r2, r3"},
		"Cmplt":  {func(b *Builder, _ Label) { b.Cmplt(r1, r2, r3) }, "cmplt r1, r2, r3"},
		"Cmple":  {func(b *Builder, _ Label) { b.Cmple(r1, r2, r3) }, "cmple r1, r2, r3"},
		"Addi":   {func(b *Builder, _ Label) { b.Addi(r1, r2, -5) }, "addi r1, r2, -5"},
		"Muli":   {func(b *Builder, _ Label) { b.Muli(r1, r2, 7) }, "muli r1, r2, 7"},
		"Andi":   {func(b *Builder, _ Label) { b.Andi(r1, r2, 0xff) }, "andi r1, r2, 0xff"},
		"Ori":    {func(b *Builder, _ Label) { b.Ori(r1, r2, 0x30) }, "ori r1, r2, 0x30"},
		"Xori":   {func(b *Builder, _ Label) { b.Xori(r1, r2, -1) }, "xori r1, r2, -1"},
		"Slli":   {func(b *Builder, _ Label) { b.Slli(r1, r2, 3) }, "slli r1, r2, 3"},
		"Srli":   {func(b *Builder, _ Label) { b.Srli(r1, r2, 4) }, "srli r1, r2, 4"},
		"Srai":   {func(b *Builder, _ Label) { b.Srai(r1, r2, 5) }, "srai r1, r2, 5"},
		"Cmpeqi": {func(b *Builder, _ Label) { b.Cmpeqi(r1, r2, 9) }, "cmpeqi r1, r2, 9"},
		"Cmplti": {func(b *Builder, _ Label) { b.Cmplti(r1, r2, 4096) }, "cmplti r1, r2, 4096"},
		"Movi":   {func(b *Builder, _ Label) { b.Movi(r1, 0x2000) }, "movi r1, 0x2000"},
		"Mov":    {func(b *Builder, _ Label) { b.Mov(r1, r2) }, "addi r1, r2, 0"},
		"Nop":    {func(b *Builder, _ Label) { b.Nop() }, "nop"},
		"Ld":     {func(b *Builder, _ Label) { b.Ld(r1, r2, -8) }, "ld r1, -8(r2)"},
		"St":     {func(b *Builder, _ Label) { b.St(r3, r2, 16) }, "st r3, 16(r2)"},
		"Beqz":   {func(b *Builder, top Label) { b.Beqz(r2, top) }, "beqz r2, top"},
		"Bnez":   {func(b *Builder, top Label) { b.Bnez(r2, top) }, "bnez r2, top"},
		"Bltz":   {func(b *Builder, top Label) { b.Bltz(r2, top) }, "bltz r2, top"},
		"Bgez":   {func(b *Builder, top Label) { b.Bgez(r2, top) }, "bgez r2, top"},
		"Jmp":    {func(b *Builder, top Label) { b.Jmp(top) }, "jmp top"},
		"Jr":     {func(b *Builder, _ Label) { b.Jr(r2) }, "jr r2"},
		"Halt":   {func(b *Builder, _ Label) { b.Halt() }, "halt"},
	}

	var methods []string
	bt := reflect.TypeOf(&Builder{})
	for i := 0; i < bt.NumMethod(); i++ {
		m := bt.Method(i)
		if m.Name != "Emit" && m.Type.NumOut() == 1 && m.Type.Out(0) == bt {
			methods = append(methods, m.Name)
			if _, ok := cases[m.Name]; !ok {
				t.Errorf("Builder.%s has no case", m.Name)
			}
		}
	}
	if len(methods) != len(cases) {
		sort.Strings(methods)
		t.Errorf("%d cases for %d instruction-emitting methods %v", len(cases), len(methods), methods)
	}

	for name, tc := range cases {
		b := NewBuilder()
		tc.build(b, b.Here())
		got, err := b.Program()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		want, err := Assemble("top: " + tc.asm)
		if err != nil {
			t.Errorf("%s: assemble %q: %v", name, tc.asm, err)
			continue
		}
		if !reflect.DeepEqual(got.Insts, want.Insts) {
			t.Errorf("%s: built %+v, assembled %q gives %+v", name, got.Insts, tc.asm, want.Insts)
		}
	}
}
