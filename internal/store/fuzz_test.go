package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/mem"
)

// The disk-tier fuzz targets seed from a real checkpoint of the workload
// with the smallest image (about 12 KB), so each input decodes quickly.
const (
	fuzzName = "gamess"
	fuzzFF   = 2_000
)

// realCkptPayload writes a real checkpoint of (name, ff) to s and returns
// its key and stored payload.
func realCkptPayload(tb testing.TB, s *Store, name string, ff uint64) (string, []byte) {
	tb.Helper()
	cp, err := ckpt.ByName(name, ff)
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.PutCheckpoint(cp); err != nil {
		tb.Fatal(err)
	}
	key := s.ckptKey(name, ff)
	payload, ok := s.Get(KindCkpt, key)
	if !ok {
		tb.Fatal("stored checkpoint does not read back")
	}
	return key, payload
}

// FuzzStoreGet puts arbitrary bytes where an entry lives. Get must answer a
// miss, or a hit whose file is exactly what Put writes for that key and the
// returned payload — never a panic, never a payload the file does not hold.
func FuzzStoreGet(f *testing.F) {
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	key, ckPayload := realCkptPayload(f, s, fuzzName, fuzzFF)
	for _, payload := range [][]byte{ckPayload, []byte("a short payload"), {}} {
		if err := s.Put(KindCkpt, key, payload); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(s.path(KindCkpt, key))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	path := s.path(KindCkpt, key)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok := s.Get(KindCkpt, key)
		if !ok {
			return
		}
		if want := append(entryHeader(key, got), got...); !bytes.Equal(data, want) {
			t.Fatalf("hit on a file that is not the entry of its payload (%d bytes, payload %d)",
				len(data), len(got))
		}
	})
}

// FuzzGetCheckpoint wraps an arbitrary payload in a valid entry under a
// checkpoint's key and looks it up with no base, a resident base of the
// same workload (the chain's shorter point) or one of another workload.
// GetCheckpoint must answer a miss, or a checkpoint of exactly the
// requested (workload, ff) — never a panic — that shares no page with a
// base of another workload. Each lookup counts as exactly one hit or one
// miss, matching its answer, and since the entry's file exists every miss
// is a corrupt one — with a resident base as without.
func FuzzGetCheckpoint(f *testing.F) {
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	key, payload := realCkptPayload(f, s, fuzzName, fuzzFF)
	_, other := realCkptPayload(f, s, "sjeng", fuzzFF)
	bases := []*ckpt.Checkpoint{nil}
	for _, name := range []string{fuzzName, "sjeng"} {
		cp, err := ckpt.ByName(name, fuzzFF/2)
		if err != nil {
			f.Fatal(err)
		}
		bases = append(bases, cp)
	}
	for base := range bases {
		f.Add(payload, uint8(base))
		f.Add(other, uint8(base)) // a valid checkpoint of another workload
		f.Add(payload[:len(payload)/2], uint8(base))
	}
	f.Fuzz(func(t *testing.T, payload []byte, which uint8) {
		base := bases[int(which)%len(bases)]
		if err := s.Put(KindCkpt, key, payload); err != nil {
			t.Fatal(err)
		}
		before := s.Metrics()
		cp, ok := s.GetCheckpoint(fuzzName, fuzzFF, base)
		if ok && (cp.Workload != fuzzName || cp.FFInsts != fuzzFF) {
			t.Fatalf("lookup for %s ff=%d answered %s ff=%d", fuzzName, fuzzFF, cp.Workload, cp.FFInsts)
		}
		if ok && base != nil && base.Workload != fuzzName && mem.SharedBytes(cp.Image(), base.Image()) != 0 {
			t.Fatalf("checkpoint of %s shares pages with a base of %s", fuzzName, base.Workload)
		}
		m := s.Metrics()
		hits, misses := m.Hits-before.Hits, m.Misses-before.Misses
		if ok && (hits != 1 || misses != 0) || !ok && (hits != 0 || misses != 1) {
			t.Fatalf("lookup answered ok=%v but counted %d hits, %d misses", ok, hits, misses)
		}
		// The entry file exists, so every miss is a corrupt one.
		if corrupt := m.CorruptMisses - before.CorruptMisses; corrupt != misses {
			t.Fatalf("%d corrupt misses for %d misses of a present entry", corrupt, misses)
		}
	})
}
