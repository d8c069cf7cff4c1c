package emu_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/workload"
)

// benchInsts is the dynamic instruction count per benchmark iteration, so
// ns/op ÷ benchInsts is ns per emulated instruction.
const benchInsts = 10_000

// aluProgram is a dense ALU kernel: a long straight-line body of fusable
// register arithmetic closed by a decrement-and-branch back edge, with no
// memory traffic. It isolates instruction dispatch — the cost threaded-code
// compilation exists to remove — from the mem-package access costs the two
// engines share, so BenchmarkEmu*/alu is the dispatch-speedup measure.
func aluProgram() (*isa.Program, *mem.Memory) {
	// Eight independent three-register accumulator groups: dependence chains
	// are loop-carried per register (64 instructions apart), so the kernel
	// has the instruction-level parallelism straight-line code really has
	// and measures dispatch throughput, not one serial data chain.
	var sb strings.Builder
	sb.WriteString("movi r1, 3\nmovi r2, 5\nmovi r0, 100000000\ntop:\n")
	for g := 0; g < 8; g++ {
		a, b, c := 3+3*g, 4+3*g, 5+3*g
		fmt.Fprintf(&sb, `
			addi r%[1]d, r%[1]d, %[4]d
			addi r%[2]d, r%[2]d, 7
			add r%[3]d, r%[3]d, r1
			add r%[1]d, r%[1]d, r2
			slli r%[2]d, r%[2]d, 1
			add r%[3]d, r%[3]d, r1
			andi r%[1]d, r%[1]d, 8191
			add r%[2]d, r%[2]d, r2
		`, a, b, c, g+1)
	}
	sb.WriteString("addi r0, r0, -1\nbnez r0, top\nhalt\n")
	return isa.MustAssemble(sb.String()), mem.New()
}

func benchWorkload(b *testing.B, name string) (*isa.Program, *mem.Memory) {
	if name == "alu" {
		return aluProgram()
	}
	w, err := workload.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	prog, img := w.Build()
	return prog, img
}

// stepRun is the interpreter's Run loop driven from outside: a retire hook
// would select the same engine, but would add its call cost to every
// instruction.
func stepRun(c *emu.CPU, maxInsts uint64) (uint64, error) {
	var n uint64
	for n < maxInsts && !c.Halted {
		if err := c.Step(); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

func benchEmu(b *testing.B, name string, run func(*emu.CPU, uint64) (uint64, error)) {
	prog, img := benchWorkload(b, name)
	img.Freeze()
	restart := func() *emu.CPU { return emu.New(prog, img.Fork()) }
	c := restart()
	if _, err := run(c, benchInsts); err != nil { // warm caches, touch pages
		b.Fatal(err)
	}
	b.SetBytes(benchInsts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Halted {
			b.StopTimer()
			c = restart()
			b.StartTimer()
		}
		if _, err := run(c, benchInsts); err != nil {
			b.Fatal(err)
		}
	}
}

// The benchstat pair guarding the threaded-code speedup (ISSUE 6 wants
// compiled ≥5× interp): alu is the pure dispatch measure, gamess is a
// compute kernel with L1-resident loads, mcf is a pointer chase and lbm a
// stencil (both bounded partly by internal/mem access costs, which the two
// engines share).

var emuBenchWorkloads = []string{"alu", "gamess", "mcf", "lbm"}

func BenchmarkEmuInterp(b *testing.B) {
	for _, name := range emuBenchWorkloads {
		b.Run(name, func(b *testing.B) { benchEmu(b, name, stepRun) })
	}
}

func BenchmarkEmuCompiled(b *testing.B) {
	for _, name := range emuBenchWorkloads {
		b.Run(name, func(b *testing.B) { benchEmu(b, name, (*emu.CPU).Run) })
	}
}
