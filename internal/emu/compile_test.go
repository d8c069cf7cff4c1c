package emu_test

import (
	"math/rand"
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/workload"
)

// The differential suite: the threaded-code engine must be architecturally
// indistinguishable from the Step interpreter — registers, PC, halt flag,
// retire count, memory image, Arch checkpoints and error values all equal —
// over every workload kernel and over seeded random programs exercising the
// fault paths the kernels never hit.

// nopRetire is the hook the differential tests attach to pin a CPU to the
// Step interpreter: any retire hook, even one that does nothing, selects it.
func nopRetire(emu.Retire) {}

// diffState compares two CPUs after equal-budget runs.
func diffState(t *testing.T, label string, ic, cc *emu.CPU, ni, nc uint64, ei, ec error) {
	t.Helper()
	if ni != nc {
		t.Errorf("%s: executed %d (interp) vs %d (compiled) instructions", label, ni, nc)
	}
	if (ei == nil) != (ec == nil) || (ei != nil && ei.Error() != ec.Error()) {
		t.Errorf("%s: error %v (interp) vs %v (compiled)", label, ei, ec)
	}
	if ic.Arch() != cc.Arch() {
		t.Errorf("%s: Arch diverged:\n  interp   %+v\n  compiled %+v", label, ic.Arch(), cc.Arch())
	}
	if !mem.Equal(ic.Mem, cc.Mem) {
		t.Errorf("%s: memory images diverged", label)
	}
}

func TestCompiledMatchesInterpWorkloads(t *testing.T) {
	const budget = 30_000
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			prog, img := w.Build()
			ic := emu.New(prog, img.Fork())
			ic.OnRetire = nopRetire
			cc := emu.New(prog, img.Fork())

			ni, ei := ic.Run(budget)
			nc, ec := cc.Run(budget)
			diffState(t, w.Name, ic, cc, ni, nc, ei, ec)

			// Resume both mid-program in smaller chunks: budget exhaustion
			// parks the compiled PC mid-superblock, and the next Run must
			// pick up exactly there.
			for i := 0; i < 10; i++ {
				ni, ei = ic.Run(777)
				nc, ec = cc.Run(777)
				diffState(t, w.Name+"/chunked", ic, cc, ni, nc, ei, ec)
			}
		})
	}
}

// TestCompiledEngineAlternation runs one workload alternating engines on the
// same CPU — interpreter and compiled code share one architectural state
// machine, so switching mid-program (even mid-superblock) must be seamless.
func TestCompiledEngineAlternation(t *testing.T) {
	w, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	prog, img := w.Build()
	ref := emu.New(prog, img.Fork())
	ref.OnRetire = nopRetire
	mix := emu.New(prog, img.Fork())

	var total uint64
	for i, chunk := range []uint64{1, 3, 998, 41, 7, 5000, 1, 1, 2500} {
		if i%2 == 0 {
			mix.OnRetire = nil
		} else {
			mix.OnRetire = nopRetire
		}
		if _, err := mix.Run(chunk); err != nil {
			t.Fatal(err)
		}
		total += chunk
	}
	if _, err := ref.Run(total); err != nil {
		t.Fatal(err)
	}
	diffState(t, "alternation", ref, mix, 0, 0, nil, nil)
}

// randProgram generates a seeded random program: all opcodes (plus a few
// invalid ones), full register range including r31, branch targets that may
// fall just outside the program, and JR through registers that only
// sometimes hold valid text addresses.
func randProgram(rng *rand.Rand, n int) *isa.Program {
	p := &isa.Program{TextBase: 0x1000, Insts: make([]isa.Inst, n)}
	for i := range p.Insts {
		in := isa.Inst{
			Op: isa.Op(rng.Intn(int(isa.HALT) + 2)), // +2: occasionally invalid
			Rd: isa.Reg(rng.Intn(isa.NumRegs)),
			Rs: isa.Reg(rng.Intn(isa.NumRegs)),
			Rt: isa.Reg(rng.Intn(isa.NumRegs)),
		}
		switch rng.Intn(3) {
		case 0:
			in.Imm = int64(rng.Intn(64) * 8) // plausible address offsets
		case 1:
			in.Imm = int64(rng.Intn(257) - 128)
		case 2:
			in.Imm = rng.Int63() - rng.Int63()
		}
		if in.IsDirect() {
			in.Target = rng.Intn(n+2) - 1 // may be -1 or n: fault paths
		}
		// HALT everywhere makes runs too short; thin it out.
		if in.Op == isa.HALT && rng.Intn(4) != 0 {
			in.Op = isa.ADDI
		}
		p.Insts[i] = in
	}
	return p
}

// randBudget bounds each random program's run.
const randBudget = 2_000

func TestCompiledMatchesInterpRandom(t *testing.T) {
	const (
		seeds  = 300
		progLn = 48
	)
	for seed := int64(0); seed < seeds; seed++ {
		diffRandom(t, seed, progLn)
		if t.Failed() {
			t.Fatalf("seed %d diverged", seed)
		}
	}
}

// FuzzCompiledMatchesInterp runs the random differential over fuzzed
// (seed, program length) pairs; the seed corpus samples the random test's
// seeds at its program length, plus a few other lengths.
func FuzzCompiledMatchesInterp(f *testing.F) {
	for seed := int64(0); seed < 300; seed += 25 {
		f.Add(seed, uint16(48))
	}
	for _, n := range []uint16{1, 2, 7, 200} {
		f.Add(int64(n), n)
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		diffRandom(t, seed, 1+int(n)%256)
	})
}

// diffRandom runs one seeded random program of progLn instructions, with
// seeded registers and memory, on both engines and compares their states.
func diffRandom(t *testing.T, seed int64, progLn int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	prog := randProgram(rng, progLn)

	var regs [isa.NumRegs]int64
	for i := range regs {
		switch rng.Intn(3) {
		case 0:
			regs[i] = int64(rng.Intn(4096))
		case 1:
			// Valid text addresses make some JRs succeed.
			regs[i] = int64(prog.PC(rng.Intn(progLn)))
		case 2:
			regs[i] = rng.Int63() - rng.Int63()
		}
	}
	regs[isa.RZero] = 0
	img := mem.New()
	for i := 0; i < 64; i++ {
		img.WriteInt64(uint64(rng.Intn(4096))*8, rng.Int63()-rng.Int63())
	}
	img.Freeze()

	ic := emu.New(prog, img.Fork())
	ic.OnRetire = nopRetire
	ic.Regs = regs
	cc := emu.New(prog, img.Fork())
	cc.Regs = regs

	// Chunked on the compiled side: odd chunk sizes exercise the
	// mid-superblock budget path against a one-shot interpreter run.
	ni, ei := ic.Run(randBudget)
	var (
		nc uint64
		ec error
	)
	for nc < randBudget && ec == nil && !cc.Halted {
		chunk := uint64(1 + rng.Intn(97))
		if chunk > randBudget-nc {
			chunk = randBudget - nc
		}
		var k uint64
		k, ec = cc.Run(chunk)
		nc += k
		if ec == nil && k < chunk {
			break // halted
		}
	}
	diffState(t, prog.Insts[0].String(), ic, cc, ni, nc, ei, ec)
}

// TestCompiledFaults pins the compiled engine's fault behavior to the
// interpreter's exact errors.
func TestCompiledFaults(t *testing.T) {
	cases := []struct {
		name string
		prog *isa.Program
		prep func(c *emu.CPU)
	}{
		{"jr-invalid", &isa.Program{TextBase: 0x1000, Insts: []isa.Inst{
			{Op: isa.ADDI, Rd: 1, Rs: 31, Imm: 12345},
			{Op: isa.JR, Rs: 1},
		}}, nil},
		{"run-off-end", &isa.Program{TextBase: 0x1000, Insts: []isa.Inst{
			{Op: isa.ADDI, Rd: 1, Rs: 1, Imm: 1},
			{Op: isa.ADDI, Rd: 2, Rs: 2, Imm: 2},
		}}, nil},
		{"branch-negative", &isa.Program{TextBase: 0x1000, Insts: []isa.Inst{
			{Op: isa.JMP, Target: -3},
		}}, nil},
		{"invalid-opcode", &isa.Program{TextBase: 0x1000, Insts: []isa.Inst{
			{Op: isa.Op(200)},
		}}, nil},
		{"halt-then-run", &isa.Program{TextBase: 0x1000, Insts: []isa.Inst{
			{Op: isa.HALT},
		}}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ic := emu.New(tc.prog, mem.New())
			ic.OnRetire = nopRetire
			cc := emu.New(tc.prog, mem.New())
			if tc.prep != nil {
				tc.prep(ic)
				tc.prep(cc)
			}
			ni, ei := ic.Run(100)
			nc, ec := cc.Run(100)
			diffState(t, tc.name, ic, cc, ni, nc, ei, ec)
			// And again: running a halted/faulted CPU must agree too.
			ni, ei = ic.Run(100)
			nc, ec = cc.Run(100)
			diffState(t, tc.name+"/again", ic, cc, ni, nc, ei, ec)
		})
	}
}

// TestOnRetireForcesInterp verifies the instrumentation contract: a hooked
// CPU observes every retired instruction, so Run must not take the compiled
// engine.
func TestOnRetireForcesInterp(t *testing.T) {
	prog := isa.MustAssemble(`
		movi r1, 5
	loop:
		addi r1, r1, -1
		bnez r1, loop
		halt
	`)
	c := emu.New(prog, mem.New())
	var seen int
	c.OnRetire = func(r emu.Retire) { seen++ }
	n, err := c.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(seen) != n {
		t.Errorf("OnRetire saw %d retires, Run reported %d", seen, n)
	}
}

// TestCompileCached verifies the decode-once contract: compiling the same
// Program twice returns the same threaded-code object.
func TestCompileCached(t *testing.T) {
	prog := isa.MustAssemble("halt")
	if emu.Compile(prog) != emu.Compile(prog) {
		t.Error("emu.Compile(prog) is not cached per Program")
	}
}
