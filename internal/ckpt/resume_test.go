package ckpt_test

import (
	"reflect"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestResumeMatchesNew is the chaining contract the runner relies on:
// continuing a checkpoint at a to b must give the checkpoint New builds at
// b — the same architectural state, the same changed pages, and a
// bit-identical simulation booted from it. One pair's first boundary falls
// inside a superblock, so the compiled engine hands its tail to the
// interpreter on the way in and resumes mid-block on the way out.
func TestResumeMatchesNew(t *testing.T) {
	cases := []struct {
		name string
		a, b uint64
	}{
		{"mcf", 0, 20_000},
		{"libquantum", 6_000, 20_000},
		{"milc", 20_000, 20_000},
		{"gamess", 7_003, 31_000},
	}
	opts := sim.RunOpts{WarmupInsts: 2_000, MeasureInsts: 5_000}
	cfg := sim.Default(sim.PFBFetch)
	for _, tc := range cases {
		w, err := workload.ByName(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		base, err := ckpt.New(w, tc.a)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ckpt.Resume(base, tc.b)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ckpt.New(w, tc.b)
		if err != nil {
			t.Fatal(err)
		}
		if got.FFInsts != want.FFInsts || got.Arch != want.Arch {
			t.Errorf("%s %d→%d: state %d %+v, want %d %+v", tc.name, tc.a, tc.b,
				got.FFInsts, got.Arch, want.FFInsts, want.Arch)
		}
		if !reflect.DeepEqual(got.Written(), want.Written()) {
			t.Errorf("%s %d→%d: changed pages differ from New's", tc.name, tc.a, tc.b)
		}
		opts.FastForwardInsts = tc.b
		rg, err := sim.RunCheckpointed(cfg, []*ckpt.Checkpoint{got}, opts)
		if err != nil {
			t.Fatal(err)
		}
		rw, err := sim.RunCheckpointed(cfg, []*ckpt.Checkpoint{want}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rg, rw) {
			t.Errorf("%s %d→%d: run from the resumed checkpoint diverges", tc.name, tc.a, tc.b)
		}
	}
	if !insideBlock(t, "gamess", 7_003) {
		t.Error("gamess at 7003 insts is a superblock boundary; pick a point inside one")
	}
}

// insideBlock reports whether the first n instructions of a kernel end
// inside a superblock: the last one is not a control op, which is where
// every superblock ends.
func insideBlock(t *testing.T, name string, n uint64) bool {
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	c := emu.New(w.Build())
	var last isa.Inst
	c.OnRetire = func(r emu.Retire) { last = r.Inst }
	if _, err := c.Run(n); err != nil {
		t.Fatal(err)
	}
	return !last.IsControl()
}

// TestResumeHaltedAndFaulting: a halted base resumes to itself at the new
// length, and a fault past the base reports New's error text, since the
// retired count runs from the program entry.
func TestResumeHaltedAndFaulting(t *testing.T) {
	halts := workload.New("halts", "halts after a short loop", "compute", false, func() (*isa.Program, *mem.Memory) {
		return loop(isa.HALT), mem.New()
	})
	base, err := ckpt.New(halts, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ckpt.Resume(base, 90_000)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ckpt.New(halts, 90_000)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Arch.Halted || got.FFInsts != 90_000 || got.Arch != want.Arch {
		t.Errorf("halted resume: %d %+v, want %d %+v", got.FFInsts, got.Arch, want.FFInsts, want.Arch)
	}

	faults := workload.New("faults", "jumps off the text after a short loop", "compute", false, func() (*isa.Program, *mem.Memory) {
		return loop(isa.JR), mem.New()
	})
	base, err = ckpt.New(faults, 50)
	if err != nil {
		t.Fatal(err)
	}
	_, errResume := ckpt.Resume(base, 90_000)
	_, errNew := ckpt.New(faults, 90_000)
	if errResume == nil || errNew == nil || errResume.Error() != errNew.Error() {
		t.Errorf("fault: Resume says %v, New says %v", errResume, errNew)
	}
	if _, err := ckpt.Resume(want, 10); err == nil {
		t.Error("resuming to a shorter length succeeded")
	}
}

// loop is a 100-iteration countdown ending in end: HALT, or a JR through a
// register holding an address outside the program.
func loop(end isa.Op) *isa.Program {
	b := isa.NewBuilder()
	b.Movi(isa.Reg(1), 100)
	b.Movi(isa.Reg(2), 1<<20)
	top := b.Here()
	b.Addi(isa.Reg(1), isa.Reg(1), -1)
	b.Bnez(isa.Reg(1), top)
	if end == isa.HALT {
		b.Halt()
	} else {
		b.Jr(isa.Reg(2))
	}
	return b.MustProgram()
}

// TestFromPartsSharesWithBase: a checkpoint rebuilt against its chain
// predecessor holds the same contents as one rebuilt alone and as the
// emulated one, and shares with the predecessor exactly the pages Resume
// shares — every page the segment left unchanged. Writes through a restore
// of either side never reach the other.
func TestFromPartsSharesWithBase(t *testing.T) {
	for _, name := range []string{"zeusmp", "mcf"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		base, err := ckpt.New(w, 200_000)
		if err != nil {
			t.Fatal(err)
		}
		emulated, err := ckpt.Resume(base, 400_000)
		if err != nil {
			t.Fatal(err)
		}
		written := emulated.Written()
		alone, err := ckpt.FromParts(name, 400_000, emulated.Arch, written, nil)
		if err != nil {
			t.Fatal(err)
		}
		chained, err := ckpt.FromParts(name, 400_000, emulated.Arch, written, base)
		if err != nil {
			t.Fatal(err)
		}
		if chained.Arch != emulated.Arch || !mem.Equal(chained.Image(), alone.Image()) ||
			!mem.Equal(chained.Image(), emulated.Image()) {
			t.Fatalf("%s: a checkpoint rebuilt against its base differs from the others", name)
		}

		// Written pages whose contents the segment 200k→400k left alone.
		unchanged := 0
		for _, pi := range written {
			if pageEquals(base.Image(), pi) {
				unchanged++
			}
		}
		if unchanged == 0 {
			t.Fatalf("%s: no written page is unchanged since the base; the test shows nothing", name)
		}
		t.Logf("%s: %d of %d written pages unchanged since ff=200k", name, unchanged, len(written))
		b := base.Image()
		if got, want := mem.SharedBytes(chained.Image(), b), mem.SharedBytes(emulated.Image(), b); got != want {
			t.Errorf("%s: rebuilt checkpoint shares %d bytes with its base, the resumed one %d", name, got, want)
		}
		if got, want := mem.SharedBytes(chained.Image(), b)-mem.SharedBytes(alone.Image(), b),
			unchanged*mem.PageBytes; got != want {
			t.Errorf("%s: the base adds %d shared bytes, want the %d unchanged written pages' bytes", name, got, want)
		}

		// A write through either restore leaves the other side unchanged.
		before, beforeBase := alone.Image().Clone(), b.Clone()
		_, fromChained, _ := chained.Restore()
		_, fromBase, _ := base.Restore()
		for _, pi := range written {
			fromChained.Write64(pi.PN*mem.PageBytes, ^uint64(0))
			fromBase.Write64(pi.PN*mem.PageBytes+8, ^uint64(1))
		}
		if !mem.Equal(b, beforeBase) || !mem.Equal(chained.Image(), before) {
			t.Errorf("%s: a write through one restore reached the other checkpoint", name)
		}
	}
}

// pageEquals reports whether m's page at pi.PN holds pi's contents.
func pageEquals(m *mem.Memory, pi mem.PageImage) bool {
	for i, w := range pi.Words {
		if m.Read64(pi.PN*mem.PageBytes+uint64(i)*8) != w {
			return false
		}
	}
	return true
}
