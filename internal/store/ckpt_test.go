package store

import (
	"bytes"
	"encoding/gob"
	"runtime"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/workload"
)

const ffInsts = 20_000

// TestCheckpointRoundTripAllWorkloads is the serialization golden test:
// for every registered workload, serialize → store → restore must yield an
// architectural state and memory image bit-identical to the in-process
// Freeze/Fork checkpoint it came from. This is the property that lets a
// disk read replace a prefix emulation without any bit-identity caveats.
// The entry must hold only the pages that differ from the built image.
func TestCheckpointRoundTripAllWorkloads(t *testing.T) {
	s := open(t)
	names := workload.Names()
	if len(names) < 18 {
		t.Fatalf("workload suite shrank to %d kernels", len(names))
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			orig, err := ckpt.ByName(name, ffInsts)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := s.GetCheckpoint(name, ffInsts, nil); ok {
				t.Fatal("hit before put")
			}
			if err := s.PutCheckpoint(orig); err != nil {
				t.Fatal(err)
			}
			back, ok := s.GetCheckpoint(name, ffInsts, nil)
			if !ok {
				t.Fatal("stored checkpoint not found")
			}
			payload, _ := s.Get(KindCkpt, s.ckptKey(name, ffInsts))
			var img ckptImage
			if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&img); err != nil {
				t.Fatal(err)
			}
			if got, want := len(img.Written), changedPages(t, name, orig); got != want {
				t.Errorf("entry holds %d pages, want the %d that differ from the built image", got, want)
			}
			if back.Arch != orig.Arch {
				t.Errorf("architectural state differs:\n got %+v\nwant %+v", back.Arch, orig.Arch)
			}
			if !mem.Equal(back.Image(), orig.Image()) {
				t.Error("memory image differs after round trip")
			}
			if back.Workload != orig.Workload || back.FFInsts != orig.FFInsts {
				t.Errorf("identity fields differ: %q/%d vs %q/%d",
					back.Workload, back.FFInsts, orig.Workload, orig.FFInsts)
			}
		})
	}
}

// changedPages counts the pages of cp's image whose contents differ from
// the workload's built image, from the two images' canonical exports.
func changedPages(t *testing.T, name string, cp *ckpt.Checkpoint) int {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	_, built := w.Build()
	before := make(map[uint64][mem.PageWords]uint64)
	for _, p := range built.Diff(nil) {
		before[p.PN] = p.Words
	}
	n := 0
	for _, p := range cp.Image().Diff(nil) {
		if old, ok := before[p.PN]; !ok || old != p.Words {
			n++
		}
		delete(before, p.PN)
	}
	return n + len(before) // pages the prefix zeroed
}

// TestProgramHashedOnce: the executable is hashed on the first Open of
// the process, so a later Open reads no part of it. Hashing streams the
// file through a 32 KiB copy buffer; an Open must allocate far less.
func TestProgramHashedOnce(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := hashProgram(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	hashing := after.TotalAlloc - before.TotalAlloc
	open(t)
	runtime.ReadMemStats(&before)
	open(t)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= hashing/4 {
		t.Errorf("a second Open allocated %d bytes, hashing the program %d", n, hashing)
	}
}

// TestCheckpointRestoredSimBitIdentical runs the cycle simulator from a
// store-restored checkpoint and from the original, and requires identical
// measured results — the end-to-end consequence of the round-trip property.
func TestCheckpointRestoredSimBitIdentical(t *testing.T) {
	s := open(t)
	orig, err := ckpt.ByName("mcf", ffInsts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutCheckpoint(orig); err != nil {
		t.Fatal(err)
	}
	back, ok := s.GetCheckpoint("mcf", ffInsts, nil)
	if !ok {
		t.Fatal("stored checkpoint not found")
	}
	cfg := sim.Default(sim.PFBFetch)
	opts := sim.RunOpts{FastForwardInsts: ffInsts, WarmupInsts: 2_000, MeasureInsts: 5_000}
	want, err := sim.RunCheckpointed(cfg, []*ckpt.Checkpoint{orig}, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sim.RunCheckpointed(cfg, []*ckpt.Checkpoint{back}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != want.Cycles || got.IPC[0] != want.IPC[0] {
		t.Errorf("restored-checkpoint sim diverges: %d cycles IPC %.6f vs %d cycles IPC %.6f",
			got.Cycles, got.IPC[0], want.Cycles, want.IPC[0])
	}
}

// TestCheckpointKeyInvalidation pins the key's sensitivity: the workload
// and the fast-forward length must split keys.
func TestCheckpointKeyInvalidation(t *testing.T) {
	s := open(t)
	a, b, c := s.ckptKey("mcf", 1000), s.ckptKey("mcf", 2000), s.ckptKey("lbm", 1000)
	if a == b {
		t.Error("different ff lengths share a key")
	}
	if a == c {
		t.Error("different workloads share a key")
	}
	if s.ckptKey("mcf", 1000) != a {
		t.Error("checkpoint key unstable")
	}
}

// TestCheckpointWrongIdentityIsAMiss: an entry whose payload names another
// (workload, ff) point — conceivable only through tampering or a key
// collision — must read as a miss.
func TestCheckpointWrongIdentityIsAMiss(t *testing.T) {
	s := open(t)
	cp, err := ckpt.ByName("mcf", ffInsts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	payload, _ := s.Get(KindCkpt, s.ckptKey("mcf", ffInsts))
	if err := s.Put(KindCkpt, s.ckptKey("lbm", ffInsts), payload); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(KindCkpt, s.ckptKey("mcf", ffInsts+1), payload); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetCheckpoint("lbm", ffInsts, nil); ok {
		t.Error("payload for mcf answered a lookup for lbm")
	}
	if _, ok := s.GetCheckpoint("mcf", ffInsts+1, nil); ok {
		t.Error("payload for ff=20000 answered a lookup for ff=20001")
	}
}
