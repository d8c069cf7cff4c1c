package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/sim"
)

func open(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t)
	key := KeyOf("blob", "hello")
	payload := []byte("the artifact bytes")
	if _, ok := s.Get("blob", key); ok {
		t.Fatal("hit on an empty store")
	}
	if err := s.Put("blob", key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("blob", key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("got %q ok=%v, want %q", got, ok, payload)
	}
	m := s.Metrics()
	if m.Hits != 1 || m.Misses != 1 || m.Writes != 1 ||
		m.BytesRead != uint64(len(payload)) || m.BytesWritten != uint64(len(payload)) {
		t.Errorf("metrics %+v", m)
	}
}

// TestCorruptionIsAMiss is the robustness table the store's crash-safety
// argument rests on: every way an entry can be damaged must read as a miss
// — never a wrong payload, never a panic — and a subsequent Put must repair
// it in place.
func TestCorruptionIsAMiss(t *testing.T) {
	payload := []byte("precious simulation bytes, checksummed")
	cases := []struct {
		name    string
		corrupt func(path string) error
	}{
		{"zero-length entry", func(p string) error {
			return os.WriteFile(p, nil, 0o644)
		}},
		{"truncated inside header", func(p string) error {
			return os.WriteFile(p, []byte("BFST"), 0o644)
		}},
		{"truncated inside payload", func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			return os.WriteFile(p, data[:len(data)-5], 0o644)
		}},
		{"trailing garbage", func(p string) error {
			f, err := os.OpenFile(p, os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				return err
			}
			f.Write([]byte("junk"))
			return f.Close()
		}},
		{"bit-flipped payload", func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			data[len(data)-3] ^= 0x40
			return os.WriteFile(p, data, 0o644)
		}},
		{"bit-flipped digest", func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			data[25] ^= 0x01 // inside the header's digest bytes
			return os.WriteFile(p, data, 0o644)
		}},
		{"wrong magic", func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			data[0] = 'X'
			return os.WriteFile(p, data, 0o644)
		}},
		{"future format version", func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			data[4] = 99
			return os.WriteFile(p, data, 0o644)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := open(t)
			key := KeyOf("blob", "victim")
			if err := s.Put("blob", key, payload); err != nil {
				t.Fatal(err)
			}
			path := s.path("blob", key)
			if err := tc.corrupt(path); err != nil {
				t.Fatalf("corrupting: %v", err)
			}
			if got, ok := s.Get("blob", key); ok {
				t.Fatalf("corrupt entry read as a hit: %q", got)
			}
			if m := s.Metrics(); m.CorruptMisses != 1 {
				t.Errorf("corrupt miss not classified: %+v", m)
			}
			// Write-back repair: the computing side overwrites the damaged
			// file and the entry is whole again.
			if err := s.Put("blob", key, payload); err != nil {
				t.Fatalf("repair write: %v", err)
			}
			got, ok := s.Get("blob", key)
			if !ok || !bytes.Equal(got, payload) {
				t.Fatal("repaired entry does not read back")
			}
		})
	}
}

// TestStaleSchemaIsAMiss pins the invalidation contract: entries written
// under other key material live at a different content address, so the
// new code simply never finds them — and even a stale file renamed over the
// new address (the worst-case collision a wiped-and-restored directory
// could produce) is rejected by the embedded-key check.
func TestStaleSchemaIsAMiss(t *testing.T) {
	s := open(t)
	fp := "cfg|apps|opts"
	oldKey := KeyOf(KindRun, "program-old", fp)
	newKey := KeyOf(KindRun, "program-new", fp)
	if err := s.Put(KindRun, oldKey, []byte("stale bytes")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(KindRun, newKey); ok {
		t.Fatal("new key hit an old entry")
	}
	// Rename the stale entry onto the new address: the header still names
	// the old key, so validation must fail it.
	if err := os.MkdirAll(filepath.Dir(s.path(KindRun, newKey)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(s.path(KindRun, oldKey), s.path(KindRun, newKey)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(KindRun, newKey); ok {
		t.Fatal("entry with mismatched embedded key read as a hit")
	}
	if m := s.Metrics(); m.CorruptMisses != 1 {
		t.Errorf("key mismatch not classified as corrupt: %+v", m)
	}
}

// TestAtomicWriteLeavesNoTemps checks the temp-then-rename discipline: after
// any number of writes the directory holds only final entries.
func TestAtomicWriteLeavesNoTemps(t *testing.T) {
	s := open(t)
	for i := 0; i < 8; i++ {
		key := KeyOf("blob", fmt.Sprint(i))
		if err := s.Put("blob", key, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	err := filepath.Walk(s.Dir(), func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() && strings.HasPrefix(filepath.Base(path), ".tmp-") {
			t.Errorf("temp file left behind: %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentSharedStore drives many goroutines through one store with
// overlapping keys — the cross-process sharing contract scaled down to one
// process, where the race detector can see it.
func TestConcurrentSharedStore(t *testing.T) {
	s := open(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				key := KeyOf("blob", fmt.Sprint(i%5))
				want := []byte(fmt.Sprintf("payload-%d", i%5))
				if got, ok := s.Get("blob", key); ok && !bytes.Equal(got, want) {
					t.Errorf("goroutine %d read wrong payload %q", g, got)
				}
				if err := s.Put("blob", key, want); err != nil {
					t.Errorf("goroutine %d put: %v", g, err)
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestResultRoundTrip(t *testing.T) {
	s := open(t)
	res, err := sim.RunSolo(sim.Default(sim.PFBFetch), "mcf",
		sim.RunOpts{WarmupInsts: 2_000, MeasureInsts: 5_000})
	if err != nil {
		t.Fatal(err)
	}
	fp := "test|fingerprint"
	if _, ok := s.GetResult(fp); ok {
		t.Fatal("hit on empty store")
	}
	if err := s.PutResult(fp, res); err != nil {
		t.Fatal(err)
	}
	got, ok := s.GetResult(fp)
	if !ok {
		t.Fatal("stored result not found")
	}
	// Everything a table can read must round-trip exactly. (The full
	// struct is not DeepEqual: unexported scheduling state in the DRAM
	// model is deliberately not serialized.)
	if !reflect.DeepEqual(got.IPC, res.IPC) ||
		!reflect.DeepEqual(got.Core, res.Core) ||
		!reflect.DeepEqual(got.L1D, res.L1D) ||
		got.LLC != res.LLC ||
		got.Cycles != res.Cycles ||
		!reflect.DeepEqual(got.Lifecycle, res.Lifecycle) ||
		!reflect.DeepEqual(got.Metrics, res.Metrics) {
		t.Error("result round trip altered observable fields")
	}
	if got.DRAM.DemandFills != res.DRAM.DemandFills ||
		got.DRAM.Writebacks != res.DRAM.Writebacks ||
		got.DRAM.StallCycles != res.DRAM.StallCycles {
		t.Error("DRAM counters altered by round trip")
	}
}

// otherProgram returns a store over s's directory as another build of the
// program would open it.
func otherProgram(s *Store) *Store {
	return &Store{dir: s.dir, prog: strings.Repeat("0", len(s.prog))}
}

// TestKeysCarryProgram: run and checkpoint keys carry the hash of the
// running executable, so two builds never share an address.
func TestKeysCarryProgram(t *testing.T) {
	s := open(t)
	if len(s.Program()) != 64 {
		t.Fatalf("program hash %q, want 64 hex digits", s.Program())
	}
	if open(t).Program() != s.Program() {
		t.Error("two stores of one process carry different program hashes")
	}
	o := otherProgram(s)
	if s.runKey("cfg|apps|opts") == o.runKey("cfg|apps|opts") {
		t.Error("run key ignores the program")
	}
	if s.ckptKey("mcf", 1000) == o.ckptKey("mcf", 1000) {
		t.Error("checkpoint key ignores the program")
	}
}

// TestOtherProgramMisses: an entry written under one program hash misses
// under another, and still answers the program that wrote it.
func TestOtherProgramMisses(t *testing.T) {
	s := open(t)
	o := otherProgram(s)
	fp := "cfg|apps|opts"
	if err := s.PutResult(fp, sim.Result{Cycles: 7}); err != nil {
		t.Fatal(err)
	}
	cp, err := ckpt.ByName(fuzzName, fuzzFF)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	if _, ok := o.GetResult(fp); ok {
		t.Error("another program's lookup read a stored result")
	}
	if _, ok := o.GetCheckpoint(fuzzName, fuzzFF, nil); ok {
		t.Error("another program's lookup read a stored checkpoint")
	}
	if m := o.Metrics(); m.Misses != 2 || m.CorruptMisses != 0 {
		t.Errorf("another program's lookups: %+v, want 2 plain misses", m)
	}
	if res, ok := s.GetResult(fp); !ok || res.Cycles != 7 {
		t.Error("the writing program no longer reads its result")
	}
	if _, ok := s.GetCheckpoint(fuzzName, fuzzFF, nil); !ok {
		t.Error("the writing program no longer reads its checkpoint")
	}
}
