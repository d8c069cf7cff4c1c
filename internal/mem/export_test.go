package mem

import "testing"

// TestExportImportRoundTrip pins the serialization substrate of durable
// checkpoints: a diff against empty memory, overlaid on empty memory, must
// reproduce the address space exactly, including contents that live in a
// frozen base under private overlays.
func TestExportImportRoundTrip(t *testing.T) {
	m := New()
	m.Write64(0x1000_0000, 0xdeadbeef)
	m.Write64(0x1000_0008, 42)
	m.Write8(0x2000_0003, 0x7f)
	m.Freeze()
	m.Write64(0x1000_0000, 0xfeedface) // private page shadowing frozen base
	m.Write64(0x3000_0000, 7)

	back := New()
	back.Overlay(m.Diff(nil))
	if !Equal(m, back) {
		t.Fatal("export/import round trip lost contents")
	}
	if got := back.Read64(0x1000_0000); got != 0xfeedface {
		t.Errorf("shadowed page: got %#x, want 0xfeedface", got)
	}
	if got := back.Read8(0x2000_0003); got != 0x7f {
		t.Errorf("byte write: got %#x", got)
	}

	// The import is independent: writes to it must not reach the source.
	back.Write64(0x3000_0000, 99)
	if m.Read64(0x3000_0000) != 7 {
		t.Error("import aliases the exporter's pages")
	}
}

// TestExportCanonical pins the canonical form of an export: against empty
// memory, zero pages do not appear, page order is sorted, and two
// architecturally equal spaces that materialized different zero pages
// export identically.
func TestExportCanonical(t *testing.T) {
	a := New()
	a.Write64(0x2000, 5)
	a.Write64(0x1000, 3)
	a.Write64(0x9000, 0) // touched but all-zero: must not export

	b := New()
	b.Write64(0x1000, 3)
	b.Write64(0x2000, 5)

	pa, pb := a.Diff(nil), b.Diff(nil)
	if len(pa) != 2 || len(pb) != 2 {
		t.Fatalf("exports have %d and %d pages, want 2 and 2 (zero pages must be dropped)", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("page %d differs between equal address spaces", i)
		}
	}
	if pa[0].PN >= pa[1].PN {
		t.Error("pages not sorted by page number")
	}
}

// TestExportEmpty covers the degenerate cases.
func TestExportEmpty(t *testing.T) {
	if pages := New().Diff(nil); len(pages) != 0 {
		t.Errorf("empty space exported %d pages", len(pages))
	}
	m := New()
	m.Overlay(nil)
	if m.Read64(0) != 0 || m.FootprintBytes() != 0 {
		t.Error("overlay of no pages changed an empty space")
	}
}

// TestDiffOverBase pins the checkpoint delta: against a base it was forked
// from, a diff carries exactly the pages whose contents changed — a page
// zeroed since the fork included, a page rewritten with its old contents
// excluded — and overlaying it on the base reproduces the source.
func TestDiffOverBase(t *testing.T) {
	base := New()
	for _, pn := range []uint64{1, 2, 3, 4} {
		base.Write64(pn*PageBytes, pn)
	}
	base.Freeze()
	m := base.Fork()
	m.Write64(1*PageBytes, 0)  // page 1 becomes all-zero
	m.Write64(2*PageBytes, 2)  // page 2 rewritten unchanged
	m.Write64(3*PageBytes, 33) // page 3 changed
	m.Write64(9*PageBytes, 9)  // page 9 new
	m.Freeze()

	d := m.Diff(base.Fork())
	var pns []uint64
	for _, p := range d {
		pns = append(pns, p.PN)
	}
	if len(pns) != 3 || pns[0] != 1 || pns[1] != 3 || pns[2] != 9 {
		t.Fatalf("diff holds pages %v, want [1 3 9]", pns)
	}
	if d[0].Words != ([PageWords]uint64{}) {
		t.Error("the zeroed page is not carried as all-zero")
	}
	back := base.Fork()
	back.Read64(1 * PageBytes) // cache the shared page's translation
	back.Overlay(d)
	if !Equal(back, m) {
		t.Error("base overlaid with the diff differs from the source")
	}
	if back.Read64(1*PageBytes) != 0 || back.Read64(4*PageBytes) != 4 {
		t.Error("overlay left a stale page or lost a shared one")
	}
}
