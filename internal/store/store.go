// Package store is the durable tier of the simulation cache: a
// content-addressed, dependency-free on-disk store for simulation artifacts,
// shared by any number of concurrent processes pointing at one directory.
//
// The in-process caches (internal/runner's fingerprint-keyed run-cache and
// checkpoint memoizer) die with the process; every repeat invocation of the
// sweep pays full price even though the deterministic fingerprint guarantees
// byte-identical answers. The store makes those caches durable: the runner
// consults it as the second tier of a two-tier lookup (memory singleflight →
// disk store → compute) and writes computed entries back, so a warm store
// turns a repeat `bfetch-bench -exp all` of the same build into disk reads.
//
// Two artifact kinds live here: full run results (sim.Result, keyed by the
// runner config fingerprint — see result.go) and fast-forward checkpoints
// (architectural state plus memory image, keyed by workload name and
// fast-forward length — see ckpt.go). Every key also carries the hash of
// the running executable, so an entry is only ever read by the build that
// wrote it: bfetch-sim and bfetch-bench share no entries, and a rebuild
// starts cold.
//
// Durability contract (DESIGN.md §8):
//
//   - Writes are atomic: entries are written to a temp file in the store
//     directory and renamed into place, so readers — in this process or any
//     other — only ever observe absent or complete files. No locks are
//     taken; concurrent writers of the same key race benignly (identical
//     content, last rename wins).
//   - Reads are paranoid: a versioned binary header carries the format
//     version, the entry's full key, the payload length and a SHA-256
//     digest. Anything that fails validation — truncated file, flipped
//     bits, stale format, zero-length entry, wrong key — reads as a miss,
//     never as a wrong answer or a panic, and the subsequent compute
//     writes a fresh entry over it (write-back repair).
//   - Keys are content addresses: the SHA-256 of the artifact's identity
//     material, which starts with the program hash. The executable holds
//     everything that decides an answer — the cycle model, the emulator,
//     the kernel generators and the payload layouts — so any change to
//     them is a new program whose lookups never reach an old entry. Stale
//     entries linger until the directory is wiped, which is always safe
//     (the store is a cache, not a system of record) and never needed for
//     correctness.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Format constants: the on-disk entry is header + payload, where the header
// is magic, format version, key length, payload length and payload digest,
// followed by the key bytes. Integers are little-endian.
const (
	formatVersion = 1
	headerFixed   = 4 + 4 + 4 + 8 + sha256.Size // magic, version, keyLen, payLen, digest
)

var magic = [4]byte{'B', 'F', 'S', 'T'}

// Store is one cache directory. The zero value is unusable; construct with
// Open. A Store is safe for concurrent use by any number of goroutines and
// coexists with other processes sharing the directory.
type Store struct {
	dir  string
	prog string // hex SHA-256 of the running executable; the first part of every key

	hits, misses  atomic.Uint64
	writes        atomic.Uint64
	writeErrs     atomic.Uint64
	bytesRead     atomic.Uint64
	bytesWritten  atomic.Uint64
	readNanos     atomic.Int64
	corruptMisses atomic.Uint64
}

// Metrics is a snapshot of the store's activity counters.
type Metrics struct {
	Hits          uint64 // entries read and validated
	Misses        uint64 // lookups answered "not here" (absent or invalid)
	CorruptMisses uint64 // the subset of misses where a file existed but failed validation
	Writes        uint64 // entries written back
	WriteErrs     uint64 // write-backs that failed (counted, never fatal)
	BytesRead     uint64 // payload bytes of validated reads
	BytesWritten  uint64 // payload bytes written back
	ReadTime      time.Duration
}

// Open returns a Store over dir, creating the directory if needed. It
// fails if the running executable cannot be hashed: without the program
// hash no key could tell this build's entries from another's.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	prog, err := program()
	if err != nil {
		return nil, fmt.Errorf("store: hashing the program: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir, prog: prog}, nil
}

// program is the hash of the running executable, computed on the first
// Open of the process.
var program = sync.OnceValues(hashProgram)

// hashProgram returns the hex SHA-256 of the running executable. On Linux
// it reads /proc/self/exe, which stays the file this process runs even
// after a rebuild has replaced it on disk.
func hashProgram() (string, error) {
	path := "/proc/self/exe"
	if runtime.GOOS != "linux" {
		exe, err := os.Executable()
		if err != nil {
			return "", err
		}
		path = exe
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Program returns the hex hash of the running executable that every key
// of this store carries.
func (s *Store) Program() string { return s.prog }

// Metrics returns a snapshot of the activity counters.
func (s *Store) Metrics() Metrics {
	return Metrics{
		Hits:          s.hits.Load(),
		Misses:        s.misses.Load(),
		CorruptMisses: s.corruptMisses.Load(),
		Writes:        s.writes.Load(),
		WriteErrs:     s.writeErrs.Load(),
		BytesRead:     s.bytesRead.Load(),
		BytesWritten:  s.bytesWritten.Load(),
		ReadTime:      time.Duration(s.readNanos.Load()),
	}
}

// KeyOf derives the content address of an artifact from its identity
// material: the hex SHA-256 over the kind and parts, each length-framed so
// no two distinct part lists collide by concatenation.
func KeyOf(kind string, parts ...string) string {
	h := sha256.New()
	frame := func(p string) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	frame(kind)
	for _, p := range parts {
		frame(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// path maps (kind, key) to the entry's file, fanned out over 256
// second-level directories so huge sweeps don't pile every entry into one.
func (s *Store) path(kind, key string) string {
	return filepath.Join(s.dir, kind, key[:2], key)
}

// Get reads and validates the entry for (kind, key), returning its payload.
// Every failure mode — absent file, truncation, corruption, format or key
// mismatch — is a miss; Get never returns an error because the store's only
// promise is "maybe cheaper than recomputing".
func (s *Store) Get(kind, key string) ([]byte, bool) {
	var out []byte
	ok := s.load(kind, key, func(payload []byte) error {
		out = payload
		return nil
	})
	return out, ok
}

// load reads and validates the entry for (kind, key) and hands its payload
// to decode. The lookup counts as one hit or one miss: a payload decode
// rejects is a corrupt miss, like a file that fails validation.
func (s *Store) load(kind, key string, decode func(payload []byte) error) bool {
	start := time.Now() //bfetch:wallclock read-latency metric, reported only
	payload, ok, corrupt := s.read(s.path(kind, key), key)
	s.readNanos.Add(int64(time.Since(start))) //bfetch:wallclock read-latency metric, reported only
	if ok && decode(payload) != nil {
		ok, corrupt = false, true
	}
	if !ok {
		s.misses.Add(1)
		if corrupt {
			s.corruptMisses.Add(1)
		}
		return false
	}
	s.hits.Add(1)
	s.bytesRead.Add(uint64(len(payload)))
	return true
}

// read performs the validated read; corrupt reports that a file was present
// but failed validation (as opposed to simply being absent).
func (s *Store) read(path, key string) (payload []byte, ok, corrupt bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false, false
	}
	if len(data) < headerFixed {
		return nil, false, true // zero-length or truncated inside the header
	}
	if !bytes.Equal(data[:4], magic[:]) {
		return nil, false, true
	}
	if binary.LittleEndian.Uint32(data[4:8]) != formatVersion {
		return nil, false, true
	}
	keyLen := binary.LittleEndian.Uint32(data[8:12])
	payLen := binary.LittleEndian.Uint64(data[12:20])
	var digest [sha256.Size]byte
	copy(digest[:], data[20:20+sha256.Size])
	rest := data[headerFixed:]
	if uint64(len(rest)) != uint64(keyLen)+payLen {
		return nil, false, true // truncated (or padded) body
	}
	if string(rest[:keyLen]) != key {
		return nil, false, true // entry for some other identity (renamed or tampered file)
	}
	payload = rest[keyLen:]
	if sha256.Sum256(payload) != digest {
		return nil, false, true // flipped bits
	}
	return payload, true, false
}

// Put writes the entry for (kind, key) atomically: temp file in the final
// directory, then rename. An existing entry is overwritten — that is the
// write-back repair path for corrupt files. Errors are returned for the
// caller to log; they must never fail the computation that produced the
// payload.
func (s *Store) Put(kind, key string, payload []byte) error {
	err := s.put(kind, key, payload)
	if err != nil {
		s.writeErrs.Add(1)
		return err
	}
	s.writes.Add(1)
	s.bytesWritten.Add(uint64(len(payload)))
	return nil
}

func (s *Store) put(kind, key string, payload []byte) error {
	final := s.path(kind, key)
	dir := filepath.Dir(final)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".tmp-"+key[:8]+"-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmpName := tmp.Name()
	// The header and key, then the payload itself: no payload-sized copy.
	_, err = tmp.Write(entryHeader(key, payload))
	if err == nil {
		_, err = tmp.Write(payload)
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmpName, final); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// entryHeader returns the bytes an entry holds before its payload: the
// fixed header followed by the key.
func entryHeader(key string, payload []byte) []byte {
	buf := make([]byte, 0, headerFixed+len(key))
	buf = append(buf, magic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, formatVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	digest := sha256.Sum256(payload)
	buf = append(buf, digest[:]...)
	return append(buf, key...)
}
