package store

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/emu"
	"repro/internal/mem"
)

// KindCkpt is the artifact kind for fast-forward checkpoints.
const KindCkpt = "ckpt"

// ckptImage is the serialized form of a checkpoint: everything Restore
// needs beyond the workload, whose program and initial image are rebuilt
// (deterministically) on load. Written holds only the pages the
// fast-forward changed (ckpt.Checkpoint.Written).
type ckptImage struct {
	Workload string
	FFInsts  uint64
	Arch     emu.Arch
	Written  []mem.PageImage
}

// errWrongIdentity marks a payload that decodes but names another
// (workload, ffInsts) point than the one looked up.
var errWrongIdentity = errors.New("store: checkpoint names another point")

// ckptKey is the content address of one (workload, ffInsts) prefix: the
// program hash, which covers the kernel generators and the emulator, the
// workload name and the fast-forward length.
func (s *Store) ckptKey(name string, ffInsts uint64) string {
	return KeyOf(KindCkpt, s.prog, name, fmt.Sprintf("ff=%d", ffInsts))
}

// GetCheckpoint looks up the serialized checkpoint of (name, ffInsts) and
// reconstitutes it: the changed pages are overlaid on the rebuilt
// workload's image, and the result is indistinguishable from an in-process
// ckpt.New of the same prefix (pinned bit-identical by the round-trip
// golden test). base, when non-nil, is a resident checkpoint of the same
// workload (the chain's next-shorter point) that each restored page equal
// to its own shares instead of copying (ckpt.FromParts); it changes what
// the checkpoint shares, never what it holds. Any defect — including a
// payload that names a different workload than expected — is a miss.
func (s *Store) GetCheckpoint(name string, ffInsts uint64, base *ckpt.Checkpoint) (*ckpt.Checkpoint, bool) {
	var cp *ckpt.Checkpoint
	ok := s.load(KindCkpt, s.ckptKey(name, ffInsts), func(payload []byte) error {
		var img ckptImage
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&img); err != nil {
			return err
		}
		if img.Workload != name || img.FFInsts != ffInsts {
			return errWrongIdentity
		}
		var err error
		cp, err = ckpt.FromParts(img.Workload, img.FFInsts, img.Arch, img.Written, base)
		return err
	})
	return cp, ok
}

// PutCheckpoint writes a checkpoint back under its workload and
// fast-forward length.
func (s *Store) PutCheckpoint(cp *ckpt.Checkpoint) error {
	img := ckptImage{
		Workload: cp.Workload,
		FFInsts:  cp.FFInsts,
		Arch:     cp.Arch,
		Written:  cp.Written(),
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(img); err != nil {
		s.writeErrs.Add(1)
		return err
	}
	return s.Put(KindCkpt, s.ckptKey(cp.Workload, cp.FFInsts), buf.Bytes())
}
