package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// Assemble parses the textual assembly syntax into a Program.
//
// Syntax, one instruction or label per line:
//
//	; full-line or trailing comment (also #)
//	loop:                 ; labels end with ':'
//	    movi  r1, 0x40
//	    ld    r2, 24(r1)  ; 64-bit load, disp(base)
//	    st    r2, -8(r1)
//	    add   r3, r2, r1
//	    addi  r1, r1, 8
//	    cmplti r4, r1, 4096
//	    bnez  r4, loop    ; branch targets are labels or @index
//	    jmp   done
//	    jr    r5
//	done:
//	    halt
//
// Immediates accept decimal (optionally negative) and 0x-prefixed hex.
func Assemble(src string) (*Program, error) {
	b := NewBuilder()
	for lineNo, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// A line may carry a label, optionally followed by an instruction.
		for {
			colon := strings.Index(line, ":")
			if colon < 0 {
				break
			}
			name := strings.TrimSpace(line[:colon])
			if !isIdent(name) {
				return nil, asmErr(lineNo, "invalid label %q", name)
			}
			l := b.NamedLabel(name)
			if b.labels[l] != -1 {
				return nil, asmErr(lineNo, "label %q defined twice", name)
			}
			b.Bind(l)
			line = strings.TrimSpace(line[colon+1:])
		}
		if line == "" {
			continue
		}
		if err := assembleInst(b, line); err != nil {
			return nil, asmErr(lineNo, "%v", err)
		}
	}
	return b.Program()
}

// MustAssemble is Assemble but panics on error.
func MustAssemble(src string) *Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

func asmErr(lineNo int, format string, args ...any) error {
	return fmt.Errorf("isa: line %d: %s", lineNo+1, fmt.Sprintf(format, args...))
}

func stripComment(s string) string {
	if i := strings.IndexAny(s, ";#"); i >= 0 {
		return s[:i]
	}
	return s
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == '.':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

var opByName = func() map[string]Op {
	m := make(map[string]Op, int(numOps))
	for op := Op(0); op < numOps; op++ {
		m[op.String()] = op
	}
	return m
}()

func assembleInst(b *Builder, line string) error {
	mnemonic, rest, _ := strings.Cut(line, " ")
	mnemonic = strings.ToLower(strings.TrimSpace(mnemonic))
	op, ok := opByName[mnemonic]
	if !ok {
		return fmt.Errorf("unknown mnemonic %q", mnemonic)
	}
	args := splitArgs(rest)

	switch op {
	case NOP, HALT:
		if len(args) != 0 {
			return fmt.Errorf("%s takes no operands", op)
		}
		b.Emit(Inst{Op: op})
	case ADD, SUB, MUL, AND, OR, XOR, SLL, SRL, SRA, CMPEQ, CMPLT, CMPLE:
		rd, rs, rt, err := threeRegs(args)
		if err != nil {
			return err
		}
		b.Emit(Inst{Op: op, Rd: rd, Rs: rs, Rt: rt})
	case ADDI, MULI, ANDI, ORI, XORI, SLLI, SRLI, SRAI, CMPEQI, CMPLTI:
		if len(args) != 3 {
			return fmt.Errorf("%s wants rd, rs, imm", op)
		}
		rd, err := parseReg(args[0])
		if err != nil {
			return err
		}
		rs, err := parseReg(args[1])
		if err != nil {
			return err
		}
		imm, err := parseImm(args[2])
		if err != nil {
			return err
		}
		b.Emit(Inst{Op: op, Rd: rd, Rs: rs, Imm: imm})
	case MOVI:
		if len(args) != 2 {
			return fmt.Errorf("movi wants rd, imm")
		}
		rd, err := parseReg(args[0])
		if err != nil {
			return err
		}
		imm, err := parseImm(args[1])
		if err != nil {
			return err
		}
		b.Emit(Inst{Op: MOVI, Rd: rd, Imm: imm})
	case LD, ST:
		if len(args) != 2 {
			return fmt.Errorf("%s wants reg, disp(base)", op)
		}
		r, err := parseReg(args[0])
		if err != nil {
			return err
		}
		disp, base, err := parseMemOperand(args[1])
		if err != nil {
			return err
		}
		if op == LD {
			b.Emit(Inst{Op: LD, Rd: r, Rs: base, Imm: disp})
		} else {
			b.Emit(Inst{Op: ST, Rt: r, Rs: base, Imm: disp})
		}
	case BEQZ, BNEZ, BLTZ, BGEZ:
		if len(args) != 2 {
			return fmt.Errorf("%s wants rs, target", op)
		}
		rs, err := parseReg(args[0])
		if err != nil {
			return err
		}
		return emitTarget(b, Inst{Op: op, Rs: rs}, args[1])
	case JMP:
		if len(args) != 1 {
			return fmt.Errorf("jmp wants a target")
		}
		// Rs is unused; RZero, as Builder.Jmp sets it, so a built and an
		// assembled jmp encode alike.
		return emitTarget(b, Inst{Op: JMP, Rs: RZero}, args[0])
	case JR:
		if len(args) != 1 {
			return fmt.Errorf("jr wants a register")
		}
		rs, err := parseReg(args[0])
		if err != nil {
			return err
		}
		b.Emit(Inst{Op: JR, Rs: rs})
	default:
		return fmt.Errorf("unhandled mnemonic %q", mnemonic)
	}
	return nil
}

func emitTarget(b *Builder, in Inst, target string) error {
	if abs, ok := strings.CutPrefix(target, "@"); ok {
		idx, err := strconv.Atoi(abs)
		if err != nil {
			return fmt.Errorf("bad absolute target %q", target)
		}
		in.Target = idx
		b.Emit(in)
		return nil
	}
	if !isIdent(target) {
		return fmt.Errorf("bad branch target %q", target)
	}
	l := b.NamedLabel(target)
	b.patches = append(b.patches, patch{inst: len(b.insts), label: l})
	b.Emit(in)
	return nil
}

func splitArgs(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func threeRegs(args []string) (rd, rs, rt Reg, err error) {
	if len(args) != 3 {
		return 0, 0, 0, fmt.Errorf("want rd, rs, rt")
	}
	if rd, err = parseReg(args[0]); err != nil {
		return
	}
	if rs, err = parseReg(args[1]); err != nil {
		return
	}
	rt, err = parseReg(args[2])
	return
}

func parseReg(s string) (Reg, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	num, ok := strings.CutPrefix(s, "r")
	if !ok {
		return 0, fmt.Errorf("bad register %q", s)
	}
	n, err := strconv.Atoi(num)
	if err != nil || n < 0 || n >= NumRegs {
		return 0, fmt.Errorf("bad register %q", s)
	}
	return Reg(n), nil
}

func parseImm(s string) (int64, error) {
	s = strings.TrimSpace(s)
	neg := false
	if rest, ok := strings.CutPrefix(s, "-"); ok {
		neg, s = true, rest
	}
	var (
		v   uint64
		err error
	)
	if hex, ok := strings.CutPrefix(strings.ToLower(s), "0x"); ok {
		v, err = strconv.ParseUint(hex, 16, 64)
	} else {
		v, err = strconv.ParseUint(s, 10, 64)
	}
	if err != nil {
		return 0, fmt.Errorf("bad immediate %q", s)
	}
	imm := int64(v)
	if neg {
		imm = -imm
	}
	return imm, nil
}

// parseMemOperand parses "disp(base)" such as "24(r2)" or "-8(r7)"; the
// displacement may be omitted ("(r2)" means 0(r2)).
func parseMemOperand(s string) (disp int64, base Reg, err error) {
	open := strings.Index(s, "(")
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	dispStr := strings.TrimSpace(s[:open])
	if dispStr != "" {
		if disp, err = parseImm(dispStr); err != nil {
			return 0, 0, err
		}
	}
	base, err = parseReg(s[open+1 : len(s)-1])
	return disp, base, err
}

// Disassemble renders a program back to assembler text, emitting synthetic
// labels at branch targets so the output round-trips through Assemble.
func Disassemble(p *Program) string {
	targets := map[int]string{}
	for name, idx := range p.Symbols {
		targets[idx] = name
	}
	for _, in := range p.Insts {
		if in.IsDirect() {
			if _, ok := targets[in.Target]; !ok {
				targets[in.Target] = fmt.Sprintf("L%d", in.Target)
			}
		}
	}
	var sb strings.Builder
	for i, in := range p.Insts {
		if name, ok := targets[i]; ok {
			fmt.Fprintf(&sb, "%s:\n", name)
		}
		if in.IsDirect() {
			text := in.String()
			at := fmt.Sprintf("@%d", in.Target)
			text = strings.Replace(text, at, targets[in.Target], 1)
			fmt.Fprintf(&sb, "    %s\n", text)
			continue
		}
		fmt.Fprintf(&sb, "    %s\n", in)
	}
	return sb.String()
}
