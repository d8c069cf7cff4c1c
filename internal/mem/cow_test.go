package mem

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestForkIsolation(t *testing.T) {
	m := New()
	m.Write64(0x1000, 7)
	m.Write64(0x9000, 11)

	f := m.Fork()
	if v := f.Read64(0x1000); v != 7 {
		t.Fatalf("fork read = %d, want 7", v)
	}
	// Child writes must not leak into the parent (or vice versa).
	f.Write64(0x1000, 8)
	if v := m.Read64(0x1000); v != 7 {
		t.Errorf("child write leaked into parent: %d", v)
	}
	m.Write64(0x9000, 12)
	if v := f.Read64(0x9000); v != 11 {
		t.Errorf("parent write leaked into child: %d", v)
	}
	// Untouched shared pages stay physically shared.
	if f.PrivateBytes() != PageBytes {
		t.Errorf("child private = %d, want one page", f.PrivateBytes())
	}
	if f.FootprintBytes() != 2*PageBytes {
		t.Errorf("child footprint = %d, want two pages", f.FootprintBytes())
	}
}

func TestForkOfFork(t *testing.T) {
	m := New()
	m.Write64(0, 1)
	a := m.Fork()
	a.Write64(8, 2)
	b := a.Fork()
	b.Write64(16, 3)
	if a.Read64(16) != 0 {
		t.Error("grandchild write leaked into child")
	}
	if b.Read64(0) != 1 || b.Read64(8) != 2 {
		t.Error("grandchild lost inherited contents")
	}
	if m.Read64(8) != 0 || m.Read64(16) != 0 {
		t.Error("descendant writes leaked into root")
	}
}

func TestFreezeIdempotentAndCloneEqual(t *testing.T) {
	m := New()
	for i := uint64(0); i < 64; i++ {
		m.Write64(i*PageBytes, i)
	}
	c := m.Clone()
	m.Freeze()
	m.Freeze() // second freeze of a clean frozen space is a no-op
	if !Equal(m, c) {
		t.Error("freeze changed contents")
	}
	f := m.Fork()
	if !Equal(f, c) {
		t.Error("fork differs from pre-freeze clone")
	}
	// Writing the parent after a freeze copies out, never mutating the base.
	m.Write64(0, 999)
	if f.Read64(0) != 0 {
		t.Error("post-freeze parent write reached the shared base")
	}
	if c2 := m.Clone(); c2.Read64(0) != 999 {
		t.Error("clone of COW parent missed private page")
	}
}

// TestFreezeKeepsUnchangedBasePages pins page sharing at Freeze: a fork
// that rewrites page A with its old value and page B with a new one keeps
// the frozen base page for A and its private copy for B.
func TestFreezeKeepsUnchangedBasePages(t *testing.T) {
	m := New()
	m.Write64(0x1000, 7)
	m.Write64(0x2000, 9)
	m.Freeze()
	baseA, baseB := m.ro[1], m.ro[2]

	f := m.Fork()
	f.Write64(0x1000, 7)
	f.Write64(0x2000, 10)
	c := f.Clone()
	if f.PrivateBytes() != 2*PageBytes {
		t.Fatalf("fork holds %d private bytes before Freeze, want two pages", f.PrivateBytes())
	}
	f.Freeze()
	if f.ro[1] != baseA {
		t.Error("page A was rewritten unchanged but Freeze kept a private copy")
	}
	if f.ro[2] == baseB {
		t.Error("page B changed but Freeze kept the base page")
	}
	if !Equal(f, c) {
		t.Error("frozen fork differs from its pre-freeze clone")
	}
	// The shared page stays copy-on-write on both sides.
	f.Write64(0x1000, 8)
	if m.Read64(0x1000) != 7 {
		t.Error("a write through the fork reached the shared base page")
	}
}

// TestFreezeWithSharesPeerPages: FreezeWith shares a private page equal to
// the peer's frozen page at the same number, keeps a differing one, and
// never takes the peer's unfrozen pages.
func TestFreezeWithSharesPeerPages(t *testing.T) {
	peer := New()
	peer.Write64(0x1000, 7)
	peer.Write64(0x2000, 9)
	peer.Freeze()
	peer.Write64(0x3000, 5) // private to peer: never shared

	m := New()
	m.Write64(0x1000, 7)
	m.Write64(0x2000, 10)
	m.Write64(0x3000, 5)
	c := m.Clone()
	m.FreezeWith(peer)
	if m.ro[1] != peer.ro[1] {
		t.Error("an identical page was not shared with the peer")
	}
	if m.ro[2] == peer.ro[2] || m.ro[3] == peer.pages[3] {
		t.Error("a differing or unfrozen peer page was shared")
	}
	if !Equal(m, c) {
		t.Error("FreezeWith changed contents")
	}
	m.Write64(0x1000, 8)
	if peer.Read64(0x1000) != 7 {
		t.Error("a write through m reached the peer's page")
	}
}

// TestConcurrentForks is the checkpoint-restore pattern: one frozen image,
// many goroutines forking and mutating their forks in parallel. Run under
// -race this pins the claim that a frozen base is safely shared.
func TestConcurrentForks(t *testing.T) {
	img := New()
	for i := uint64(0); i < 32; i++ {
		img.Write64(i*PageBytes, i+1)
	}
	img.Freeze()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g uint64) {
			defer wg.Done()
			f := img.Fork()
			for i := uint64(0); i < 32; i++ {
				if v := f.Read64(i * PageBytes); v != i+1 {
					t.Errorf("fork %d: read %d, want %d", g, v, i+1)
					return
				}
				f.Write64(i*PageBytes, g*1000+i)
			}
			for i := uint64(0); i < 32; i++ {
				if v := f.Read64(i * PageBytes); v != g*1000+i {
					t.Errorf("fork %d: readback %d at page %d", g, v, i)
					return
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	for i := uint64(0); i < 32; i++ {
		if v := img.Read64(i * PageBytes); v != i+1 {
			t.Errorf("base image mutated at page %d: %d", i, v)
		}
	}
}

// Property: interleaved writes to a fork and its parent behave exactly like
// writes to two independent deep copies.
func TestQuickForkVsClone(t *testing.T) {
	type op struct {
		ToFork bool
		Addr   uint16
		Val    uint64
	}
	f := func(init []uint16, ops []op) bool {
		m := New()
		for _, a := range init {
			m.Write64(uint64(a), uint64(a)+1)
		}
		refParent := m.Clone()
		refChild := m.Clone()
		child := m.Fork()
		for _, o := range ops {
			if o.ToFork {
				child.Write64(uint64(o.Addr), o.Val)
				refChild.Write64(uint64(o.Addr), o.Val)
			} else {
				m.Write64(uint64(o.Addr), o.Val)
				refParent.Write64(uint64(o.Addr), o.Val)
			}
		}
		return Equal(child, refChild) && Equal(m, refParent)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// BenchmarkMemReadWrite exercises the Read64/Write64 hot path with the
// page-local access pattern the simulators produce; the one-entry
// translation cache in pageFor is what it measures.
func BenchmarkMemReadWrite(b *testing.B) {
	m := New()
	const span = 64 * PageBytes
	for a := uint64(0); a < span; a += PageBytes {
		m.Write64(a, a)
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		// 8 accesses in one page, then move on — roughly a cache block walk.
		base := (uint64(i) * 512) % span
		for j := uint64(0); j < 8; j++ {
			sink += m.Read64(base + j*8)
			m.Write64(base+j*8, sink)
		}
	}
	_ = sink
}

// BenchmarkMemFork measures the steady-state cost of restoring from a
// frozen image: one O(1) fork plus a handful of copy-on-write page faults.
func BenchmarkMemFork(b *testing.B) {
	img := New()
	for a := uint64(0); a < 256*PageBytes; a += PageBytes {
		m64 := a * 3
		img.Write64(a, m64)
	}
	img.Freeze()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := img.Fork()
		f.Write64(0, uint64(i)) // one COW fault
	}
}
