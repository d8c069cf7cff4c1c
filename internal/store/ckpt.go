package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"reflect"

	"repro/internal/ckpt"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/workload"
)

// KindCkpt is the artifact kind for fast-forward checkpoints.
const KindCkpt = "ckpt"

// ckptImage is the serialized form of a checkpoint: everything Restore
// needs except the program, which is rebuilt from the (deterministic)
// workload on load. The memory image travels as exported pages.
type ckptImage struct {
	Workload string
	FFInsts  uint64
	Arch     emu.Arch
	Pages    []mem.PageImage
}

// ckptSchema salts checkpoint keys with the serialized layout, exactly as
// resultSchema does for run results.
var ckptSchema = TypeHash(reflect.TypeOf(ckptImage{}))

// CheckpointKey is the content address of one (workload, ffInsts) prefix:
// the workload's built content fingerprint (program text plus initial
// image, so a changed kernel generator invalidates its checkpoints), the
// fast-forward length, the emulator's semantic version, and the entry
// schema. Building the workload to fingerprint it is cheap — builds are
// memoized per process, and the restore path rebuilds the program anyway.
func CheckpointKey(name string, ffInsts uint64) (string, error) {
	w, err := workload.ByName(name)
	if err != nil {
		return "", err
	}
	prog, image := w.Build()
	return KeyOf(KindCkpt,
		name,
		workloadFingerprint(prog, image),
		fmt.Sprintf("ff=%d", ffInsts),
		fmt.Sprintf("emu=%d", emu.Version),
		ckptSchema,
	), nil
}

// workloadFingerprint hashes a workload's built artifacts: every
// instruction field, the text base, the symbol table (sorted), and the
// initial memory image's pages (ExportPages returns them sorted, zero
// pages canonically omitted).
func workloadFingerprint(prog *isa.Program, image *mem.Memory) string {
	h := sha256.New()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	put(prog.TextBase)
	put(uint64(len(prog.Insts)))
	for _, in := range prog.Insts {
		put(uint64(in.Op))
		put(uint64(in.Rd))
		put(uint64(in.Rs))
		put(uint64(in.Rt))
		put(uint64(in.Imm))
		put(uint64(in.Target))
	}
	for _, sym := range sortedKeys(prog.Symbols) {
		h.Write([]byte(sym))
		put(uint64(prog.Symbols[sym]))
	}
	for _, p := range image.ExportPages() {
		put(p.PN)
		for _, w := range p.Words {
			put(w)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// GetCheckpoint looks up a serialized checkpoint by its key and
// reconstitutes it: pages become a fresh frozen memory image, the program
// is rebuilt from the workload registry, and the result is
// indistinguishable from an in-process ckpt.New of the same prefix (pinned
// bit-identical by the round-trip golden test). Any defect — including a
// payload that names a different workload than expected — is a miss.
func (s *Store) GetCheckpoint(key, name string, ffInsts uint64) (*ckpt.Checkpoint, bool) {
	payload, ok := s.Get(KindCkpt, key)
	if !ok {
		return nil, false
	}
	var img ckptImage
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&img); err != nil {
		s.corruptMisses.Add(1)
		return nil, false
	}
	if img.Workload != name || img.FFInsts != ffInsts {
		s.corruptMisses.Add(1)
		return nil, false
	}
	cp, err := ckpt.FromParts(img.Workload, img.FFInsts, img.Arch, mem.FromPages(img.Pages))
	if err != nil {
		s.corruptMisses.Add(1)
		return nil, false
	}
	return cp, true
}

// PutCheckpoint writes a checkpoint back under its key.
func (s *Store) PutCheckpoint(key string, cp *ckpt.Checkpoint) error {
	img := ckptImage{
		Workload: cp.Workload,
		FFInsts:  cp.FFInsts,
		Arch:     cp.Arch,
		Pages:    cp.Image().ExportPages(),
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(img); err != nil {
		s.writeErrs.Add(1)
		return err
	}
	return s.Put(KindCkpt, key, buf.Bytes())
}
