package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ckpt"
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
	key, err := CheckpointKey(name, ff)
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.PutCheckpoint(key, cp); err != nil {
		tb.Fatal(err)
	}
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
// checkpoint's key. GetCheckpoint must answer a miss, or a checkpoint of
// exactly the requested (workload, ff) — never a panic. Each lookup counts
// as exactly one hit or one miss, matching its answer, and corrupt misses
// stay a subset of misses.
func FuzzGetCheckpoint(f *testing.F) {
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	key, payload := realCkptPayload(f, s, fuzzName, fuzzFF)
	_, other := realCkptPayload(f, s, "sjeng", fuzzFF)
	f.Add(payload)
	f.Add(other) // a valid checkpoint of another workload
	f.Add(payload[:len(payload)/2])
	f.Fuzz(func(t *testing.T, payload []byte) {
		if err := s.Put(KindCkpt, key, payload); err != nil {
			t.Fatal(err)
		}
		before := s.Metrics()
		cp, ok := s.GetCheckpoint(key, fuzzName, fuzzFF)
		if ok && (cp.Workload != fuzzName || cp.FFInsts != fuzzFF) {
			t.Fatalf("lookup for %s ff=%d answered %s ff=%d", fuzzName, fuzzFF, cp.Workload, cp.FFInsts)
		}
		m := s.Metrics()
		hits, misses := m.Hits-before.Hits, m.Misses-before.Misses
		if ok && (hits != 1 || misses != 0) || !ok && (hits != 0 || misses != 1) {
			t.Fatalf("lookup answered ok=%v but counted %d hits, %d misses", ok, hits, misses)
		}
		if m.CorruptMisses > m.Misses {
			t.Fatalf("%d corrupt misses exceed %d misses", m.CorruptMisses, m.Misses)
		}
	})
}
