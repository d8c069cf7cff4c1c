package prefetch_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"testing"

	"repro/internal/isb"
	"repro/internal/obs"
	"repro/internal/prefetch"
	"repro/internal/sms"
	"repro/internal/stems"
)

// The pin tests drive each queue-fed engine with one fixed access stream and
// compare a hash of everything it shows the simulator — every request in
// issue order, Idle after every tick, its obs counters and StorageBits before
// and after a mid-stream ResetStats — against a constant. A refactor of an
// engine's internals must keep the hash; a deliberate model change updates
// the constant with the change.

// pinStream is a deterministic access stream that exercises every engine:
// strided loads that cross regions, a tour of regions revisited with the
// same trigger PCs and offsets (so SMS's PHT and STeMS's temporal index
// hit), and random traffic with stores and hits mixed in.
func pinStream(n int) []prefetch.AccessInfo {
	seed := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 { // splitmix64
		seed += 0x9E3779B97F4A7C15
		z := seed
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		return z ^ z>>31
	}

	// The tour: 96 region visits, more than the 64-entry AGT holds, so
	// generations close and train before the tour comes round again.
	type visit struct {
		pc, region uint64
		offs       []int
	}
	tour := make([]visit, 96)
	for i := range tour {
		offs := make([]int, 2+next()%5)
		for j := range offs {
			offs[j] = int(next() % 32)
		}
		tour[i] = visit{pc: 0x1000 + next()%12*4, region: 0x100_0000 + next()%400*2048, offs: offs}
	}
	strides := []int64{64, 128, -64, 192, 64 * 40}
	cursors := make([]uint64, len(strides))
	for i := range cursors {
		cursors[i] = 0x800_0000 + uint64(i)<<22
	}

	out := make([]prefetch.AccessInfo, 0, n)
	tv, to := 0, 0
	for len(out) < n {
		a := prefetch.AccessInfo{Write: next()%9 == 0, Hit: next()%3 == 0}
		switch k := next() % 10; {
		case k < 3:
			s := next() % uint64(len(strides))
			cursors[s] = uint64(int64(cursors[s]) + strides[s])
			a.PC, a.Addr = 0x2000+s*4, cursors[s]+next()%8
		case k < 8:
			v := tour[tv]
			a.PC, a.Addr = v.pc, v.region+uint64(v.offs[to]*64)
			if to++; to == len(v.offs) {
				tv, to = (tv+1)%len(tour), 0
			}
		default:
			a.PC, a.Addr = 0x3000+next()%16*4, 0x4000_0000+next()%(1<<20)
		}
		out = append(out, a)
	}
	return out
}

// pinHash runs the stream through p and returns the hex digest of its
// observable behaviour.
func pinHash(p prefetch.Prefetcher) string {
	h := sha256.New()
	put := func(vs ...uint64) {
		for _, v := range vs {
			binary.Write(h, binary.LittleEndian, v)
		}
	}
	stream := pinStream(20000)
	var buf []prefetch.Request
	for i, a := range stream {
		if i == len(stream)/2 {
			pinState(h, p)
			p.ResetStats()
		}
		p.OnAccess(a)
		buf = p.AppendTick(buf[:0], uint64(i))
		for _, r := range buf {
			put(uint64(i), r.Addr, r.LoadPC)
		}
		if p.Idle() {
			put(1)
		}
	}
	// Drain whatever is still queued.
	for i := len(stream); !p.Idle(); i++ {
		buf = p.AppendTick(buf[:0], uint64(i))
		for _, r := range buf {
			put(uint64(i), r.Addr, r.LoadPC)
		}
	}
	pinState(h, p)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// pinState hashes the engine's name, storage and every obs counter it
// exports, by name.
func pinState(h hash.Hash, p prefetch.Prefetcher) {
	reg := obs.NewRegistry()
	p.(obs.Registrant).RegisterObs(reg, "pf.")
	fmt.Fprintf(h, "%s %d\n", p.Name(), p.StorageBits())
	for _, s := range reg.Snapshot().Samples {
		fmt.Fprintf(h, "%s=%d\n", s.Name, s.Value)
	}
}

func TestPinStride(t *testing.T) {
	const want = "e3b0be82e9598a2b4154b2b4b8785377ef675108e191dde6901d4739ab37239d"
	if got := pinHash(prefetch.NewStride(prefetch.DefaultStrideConfig())); got != want {
		t.Errorf("stride behaviour hash = %s, want %s", got, want)
	}
}

func TestPinNextN(t *testing.T) {
	const want = "e764dd4853cbe07fda0cfe03321fc0877d74ce7b5c438abc6ce6dd525b7d615a"
	if got := pinHash(prefetch.NewNextN(4)); got != want {
		t.Errorf("next-n behaviour hash = %s, want %s", got, want)
	}
}

func TestPinSMS(t *testing.T) {
	const want = "6f4213ad45b4cc82cf9936367d73616fe57837f12dcf7f5d63f662b2d6bf2923"
	s := sms.New(sms.DefaultConfig())
	if got := pinHash(s); got != want {
		t.Errorf("sms behaviour hash = %s, want %s", got, want)
	}
	if s.PHTHits == 0 {
		t.Error("the stream never hit SMS's PHT")
	}
}

func TestPinSTeMS(t *testing.T) {
	const want = "10b66310ad8f0999bb12da1db01e77e79870a6a14535b60097621e44c58c4132"
	s := stems.New(stems.DefaultConfig())
	if got := pinHash(s); got != want {
		t.Errorf("stems behaviour hash = %s, want %s", got, want)
	}
	if s.TemporalHits == 0 {
		t.Error("the stream never hit STeMS's temporal index")
	}
}

func TestPinISB(t *testing.T) {
	const want = "6a9a5391bd5054ab9e6bc95400ef9b09f6d60b10e27ac0b099c41e75889239f4"
	p := isb.New(isb.DefaultConfig())
	if got := pinHash(p); got != want {
		t.Errorf("isb behaviour hash = %s, want %s", got, want)
	}
	if p.TrainedPairs == 0 {
		t.Error("the stream never trained ISB")
	}
}

// SMS on 256-byte regions: four blocks a region pins the region geometry at
// a size other than the default's 2 KB.
func TestPinSMSSmallRegion(t *testing.T) {
	const want = "c438289fb333ba6b6a58da04c17ccdd1eda22cb3d2515b6d7bc7e0ac1fc17ed2"
	s := sms.New(sms.Config{RegionBytes: 256, AGTEntries: 64, PHTEntries: 16384})
	if got := pinHash(s); got != want {
		t.Errorf("sms 256-byte-region behaviour hash = %s, want %s", got, want)
	}
	if s.PHTHits == 0 {
		t.Error("the stream never hit SMS's PHT")
	}
}
