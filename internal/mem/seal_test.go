package mem

import (
	"reflect"
	"testing"
)

// sealImage returns an image spread over scattered pages, as the workload
// builders lay theirs out, with a private overlay left unfrozen so Seal has
// to freeze it first.
func sealImage() *Memory {
	m := New()
	for i := uint64(0); i < 48; i++ {
		m.Write64(0x1000_0000+i*PageBytes+8*(i%PageWords), i*0x9e3779b97f4a7c15+1)
		m.Write64(0x2000_0000+i*3*PageBytes, ^i)
	}
	m.Freeze()
	m.Write64(0x3000_0000, 7)
	m.Write8(0x1000_0003, 0x5a)
	return m
}

// TestSealPreservesContents pins that sealing moves pages, never changes
// them: Diff(nil) — the canonical export — and Equal read the same before
// and after, and a second Seal changes nothing.
func TestSealPreservesContents(t *testing.T) {
	m := sealImage()
	before := m.Clone()
	want := m.Diff(nil)

	m.Seal()
	if got := m.Diff(nil); !reflect.DeepEqual(got, want) {
		t.Fatal("Diff(nil) changed across Seal")
	}
	if !Equal(m, before) || !Equal(before, m) {
		t.Fatal("sealed image no longer Equals its pre-seal clone")
	}
	if m.PrivateBytes() != 0 {
		t.Errorf("sealed image keeps %d private bytes", m.PrivateBytes())
	}

	ro := make(map[uint64]*page, len(m.ro))
	for pn, p := range m.ro {
		ro[pn] = p
	}
	m.Seal()
	for pn, p := range m.ro {
		if ro[pn] != p {
			t.Fatalf("a second Seal moved page %#x", pn)
		}
	}
	if got := m.Diff(nil); !reflect.DeepEqual(got, want) {
		t.Error("Diff(nil) changed across a second Seal")
	}
}

// TestSealedForkCopyOnWrite pins the write path through a sealed page: the
// fork copies the page privately, and neither the sealed image nor a sibling
// fork sees the write.
func TestSealedForkCopyOnWrite(t *testing.T) {
	m := sealImage()
	before := m.Clone()
	m.Seal()

	a, b := m.Fork(), m.Fork()
	a.Write64(0x1000_0000, 0xfeedface) // word store into a sealed page
	a.Write8(0x2000_0001, 0x11)        // byte store into another
	if a.PrivateBytes() != 2*PageBytes {
		t.Errorf("fork owns %d private bytes, want two pages", a.PrivateBytes())
	}
	if a.Read64(0x1000_0000) != 0xfeedface || a.Read8(0x2000_0001) != 0x11 {
		t.Error("fork lost its own writes")
	}
	if !Equal(m, before) {
		t.Error("a fork's write reached the sealed image")
	}
	if !Equal(b, before) {
		t.Error("a fork's write reached its sibling")
	}
	// The parent itself is writable through the API too.
	m.Write64(0x2000_0000, 1)
	if m.Read64(0x2000_0000) != 1 || b.Read64(0x2000_0000) != before.Read64(0x2000_0000) {
		t.Error("parent write through a sealed page went astray")
	}
}

// TestSealedSharedBytes pins that forks of a sealed image share its pages:
// SharedBytes counts every sealed page the two forks left unwritten.
func TestSealedSharedBytes(t *testing.T) {
	m := sealImage()
	m.Seal()
	pages := len(m.ro)
	a, b := m.Fork(), m.Fork()
	if got, want := SharedBytes(a, b), pages*PageBytes; got != want {
		t.Fatalf("SharedBytes = %d, want %d (every sealed page)", got, want)
	}
	a.Write64(0x2000_0000, 3)
	if got, want := SharedBytes(a, b), (pages-1)*PageBytes; got != want {
		t.Errorf("SharedBytes after one write = %d, want %d", got, want)
	}
}

// TestCloneOfSealedIsHeapOwned pins that a clone shares nothing with a
// sealed image: every page is private, writable in place, and the writes
// leave the sealed image alone.
func TestCloneOfSealedIsHeapOwned(t *testing.T) {
	m := sealImage()
	m.Seal()
	c := m.Clone()
	if c.ro != nil {
		t.Fatal("clone kept a frozen base")
	}
	if c.PrivateBytes() != m.FootprintBytes() {
		t.Fatalf("clone owns %d bytes, want the image's %d", c.PrivateBytes(), m.FootprintBytes())
	}
	for pn, p := range c.pages {
		if p == m.ro[pn] {
			t.Fatalf("clone page %#x aliases the sealed page", pn)
		}
	}
	before := m.Clone()
	for pn := range c.pages {
		c.Write64(pn*PageBytes, 0xabcdef)
	}
	if c.PrivateBytes() != m.FootprintBytes() {
		t.Error("writes to the clone allocated new pages")
	}
	if !Equal(m, before) {
		t.Error("a clone's write reached the sealed image")
	}
}
