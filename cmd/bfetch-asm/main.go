// Command bfetch-asm assembles, disassembles, and functionally executes
// programs in the repository's toy ISA — handy when writing new workload
// kernels or reproducing the paper's code examples.
//
// Usage:
//
//	bfetch-asm -run prog.s               # assemble and execute
//	bfetch-asm -run prog.s -max 100000   # bounded execution
//	bfetch-asm -dis prog.s               # assemble then disassemble (round-trip)
//	echo 'movi r1, 42
//	halt' | bfetch-asm -run -
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
)

func main() {
	var (
		runFile = flag.String("run", "", "assemble and execute FILE ('-' for stdin)")
		disFile = flag.String("dis", "", "assemble FILE and print its disassembly")
		max     = flag.Uint64("max", 1_000_000, "maximum instructions to execute")
		regs    = flag.Bool("regs", true, "print non-zero registers after the run")
	)
	flag.Parse()

	switch {
	case *disFile != "":
		prog := assemble(*disFile)
		fmt.Print(isa.Disassemble(prog))
	case *runFile != "":
		prog := assemble(*runFile)
		cpu := emu.New(prog, mem.New())
		n, err := cpu.Run(*max)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("executed %d instructions (halted=%v)\n", n, cpu.Halted)
		if *regs {
			for i, v := range cpu.Regs {
				if v != 0 {
					fmt.Printf("  r%-2d = %-20d %#x\n", i, v, uint64(v))
				}
			}
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func assemble(path string) *isa.Program {
	var (
		src []byte
		err error
	)
	if path == "-" {
		src, err = io.ReadAll(os.Stdin)
	} else {
		src, err = os.ReadFile(path)
	}
	if err != nil {
		fatal(err)
	}
	prog, err := isa.Assemble(string(src))
	if err != nil {
		fatal(err)
	}
	return prog
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bfetch-asm:", err)
	os.Exit(1)
}
