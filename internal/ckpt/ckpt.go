// Package ckpt implements functional fast-forward checkpoints: the paper's
// measurement protocol (§V-A) skips a 10 B-instruction prefix before its
// warmup/measure window, and re-executing that shared prefix at
// cycle-accurate cost for every simulation point is pure waste. A
// Checkpoint captures the architectural state — registers, PC, retired
// count, memory image — after running a workload's prefix once on the
// functional emulator (internal/emu), and Restore boots any number of
// cycle-accurate simulations from it. Resume extends a checkpoint to a
// longer prefix of the same workload by emulating only the difference, so
// a chain of checkpoints at growing lengths emulates each prefix once.
//
// The memory image is the workload's built image plus the pages the prefix
// changed, frozen at capture (mem.Memory.Freeze): it shares every unchanged
// page with the workload's image, and Restore is an O(1) copy-on-write fork,
// so concurrent simulations restored from one checkpoint share its footprint
// and privately copy only the pages they write. Along a chain, a checkpoint
// also shares every page its own segment left unchanged with the checkpoint
// it was resumed from (Resume) or rebuilt against (FromParts with a base):
// it owns only the pages whose contents its segment changed. Restore is
// safe to call from many goroutines at once.
//
// What a checkpoint deliberately does NOT capture: any microarchitectural
// state. Caches, branch predictor, confidence estimator and prefetcher all
// start cold at restore — warming them is the warmup phase's job, exactly
// as in trace-based and checkpoint-based simulator methodology. That makes
// a restored run bit-identical to fast-forwarding the same prefix inline on
// the functional emulator immediately before the cycle simulation
// (sim.Run's inline path; pinned by tests in internal/runner).
package ckpt

import (
	"fmt"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/workload"
)

// Checkpoint is one workload's architectural state after a functional
// fast-forward. Checkpoints are immutable once created and safe for
// concurrent Restore.
type Checkpoint struct {
	// Workload is the kernel this checkpoint was captured from.
	Workload string
	// FFInsts is the requested fast-forward length. If the program halted
	// early, Arch.Retired < FFInsts and Arch.Halted is true.
	FFInsts uint64
	// Arch is the captured architectural state.
	Arch emu.Arch

	w     workload.Workload
	prog  *isa.Program
	image *mem.Memory // frozen; w's image plus the changed pages; Restore forks it
}

// New builds the workload, executes ffInsts instructions on the functional
// emulator, and captures the result: a Resume from the built image at
// ff = 0, so there is one emulation path. The workload's build must be
// deterministic (the package's contract), so New is a pure function of
// (workload, ffInsts): two checkpoints of the same point are
// interchangeable.
func New(w workload.Workload, ffInsts uint64) (*Checkpoint, error) {
	prog, image := w.Build()
	image.Freeze()
	return Resume(&Checkpoint{Workload: w.Name, w: w, prog: prog, image: image}, ffInsts)
}

// Resume continues base's fast-forward to ffInsts instructions from the
// program entry: it emulates only the ffInsts − base.FFInsts instructions
// past base, on a copy-on-write fork of base's frozen image, and captures a
// checkpoint of the same shape New builds. The result owns only the pages
// whose contents the segment changed (mem.Memory.Freeze); it shares every
// other page with base. The emulator is deterministic
// and resumable, so Resume(New(w, a), b) equals New(w, b) for every a ≤ b —
// the same Arch, the same changed pages — and a fault reports the same
// error, since the retired count runs from the program entry. A halted base
// retires nothing more, so it resumes to itself with the new FFInsts. base
// is only read, so many Resumes may share it concurrently.
func Resume(base *Checkpoint, ffInsts uint64) (*Checkpoint, error) {
	if ffInsts < base.FFInsts {
		return nil, fmt.Errorf("ckpt: cannot resume %s at %d insts back to %d", base.Workload, base.FFInsts, ffInsts)
	}
	cp := *base
	cp.FFInsts = ffInsts
	cp.image = base.image.Fork()
	c := emu.New(cp.prog, cp.image)
	c.SetArch(base.Arch)
	if _, err := c.Run(ffInsts - base.FFInsts); err != nil {
		return nil, fmt.Errorf("ckpt: fast-forward of %s after %d insts: %w", base.Workload, c.Retired, err)
	}
	cp.image.Freeze()
	cp.Arch = c.Arch()
	return &cp, nil
}

// ByName is New for a registered workload name.
func ByName(name string, ffInsts uint64) (*Checkpoint, error) {
	w, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	return New(w, ffInsts)
}

// FromParts reconstructs a checkpoint from externally stored state: the
// workload name (whose program and image are rebuilt — workload builds are
// deterministic, so they are the ones the state was captured against), the
// requested fast-forward length, the captured architectural state, and the
// pages the fast-forward changed (Written). The pages are overlaid on a
// copy-on-write fork of the built image, so the result shares the
// unchanged pages exactly as a checkpoint made by New does.
//
// base, when non-nil, is a checkpoint of the same workload the caller
// already holds — in a chain, the next-shorter point. A written page whose
// contents equal base's frozen page at the same number shares that page
// instead of holding a copy, as Resume from base would. A base of another
// workload is ignored, so the result never depends on which base is given,
// only how much it shares.
//
// FromParts trusts its inputs only as far as cheap validation can carry:
// the workload must exist and the PC must be a valid resume point for the
// rebuilt program. Content integrity (the pages and Arch actually being
// the prefix's output) is the storage layer's job — internal/store keys
// checkpoint entries by the hash of the running program, which covers the
// workload generators, so a changed generator can never pair stale state
// with a fresh program.
func FromParts(name string, ffInsts uint64, arch emu.Arch, written []mem.PageImage, base *Checkpoint) (*Checkpoint, error) {
	w, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	prog, image := w.Build()
	if arch.PC < 0 || arch.PC > len(prog.Insts) {
		return nil, fmt.Errorf("ckpt: restored PC %d out of range for %s (%d insts)",
			arch.PC, name, len(prog.Insts))
	}
	image.Overlay(written)
	var peer *mem.Memory
	if base != nil && base.Workload == name {
		peer = base.image
	}
	image.FreezeWith(peer)
	return &Checkpoint{
		Workload: name,
		FFInsts:  ffInsts,
		Arch:     arch,
		w:        w,
		prog:     prog,
		image:    image,
	}, nil
}

// Image returns the checkpoint's frozen memory image. It is shared state —
// callers may read or Fork it but must not write through it directly.
func (c *Checkpoint) Image() *mem.Memory { return c.image }

// Written returns the pages whose contents differ from the workload's built
// image, sorted by page number — a page the prefix zeroed included. They
// are all a checkpoint holds beyond the workload: FromParts rebuilds the
// checkpoint from them.
func (c *Checkpoint) Written() []mem.PageImage {
	_, built := c.w.Build()
	return c.image.Diff(built)
}

// Restore returns what a core needs to resume from the checkpoint: the
// program (shared — it is read-only), a copy-on-write fork of the memory
// image, and the architectural state. Each call returns an independent
// fork; concurrent calls are safe.
func (c *Checkpoint) Restore() (*isa.Program, *mem.Memory, emu.Arch) {
	return c.prog, c.image.Fork(), c.Arch
}

// FootprintBytes reports the frozen image's resident size — the memory all
// restored simulations share.
func (c *Checkpoint) FootprintBytes() int { return c.image.FootprintBytes() }
