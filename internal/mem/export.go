package mem

import "sort"

// PageWords is the number of 64-bit words in one page.
const PageWords = PageBytes / 8

// PageImage is one page's externalized contents, the currency of checkpoint
// serialization (internal/store). Words holds the page as aligned 64-bit
// little-endian words, the same layout the Memory stores internally.
type PageImage struct {
	PN    uint64 // page number (byte address / PageBytes)
	Words [PageWords]uint64
}

// Diff returns deep copies of the pages whose visible contents differ
// between m and base, as m holds them, sorted by page number. A nil base is
// empty memory. A page that base holds and m reads as zero is included
// all-zero; otherwise absent and all-zero pages are alike (as in Equal), so
// the result is canonical: base.Overlay(m.Diff(base)) makes base Equal to m,
// and m.Diff(nil) is the same for any two equal address spaces. Pages both
// sides share copy-on-write are skipped without comparing them.
func (m *Memory) Diff(base *Memory) []PageImage {
	if base == nil {
		base = &Memory{}
	}
	var zero page
	changed := make(map[uint64]bool)
	for _, layer := range []map[uint64]*page{m.pages, m.ro, base.pages, base.ro} {
		for pn := range layer {
			p, q := m.lookup(pn), base.lookup(pn)
			if p == nil {
				p = &zero
			}
			if q == nil {
				q = &zero
			}
			if p != q && *p != *q {
				changed[pn] = true
			}
		}
	}
	pns := make([]uint64, 0, len(changed))
	for pn := range changed {
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	out := make([]PageImage, len(pns))
	for i, pn := range pns {
		out[i].PN = pn
		if p := m.lookup(pn); p != nil {
			out[i].Words = *p
		}
	}
	return out
}

// Overlay writes page images into m's private layer, replacing whatever m
// held at those page numbers; duplicate page numbers keep the last image.
// The pages are copied, so m shares nothing with the images afterwards.
func (m *Memory) Overlay(pages []PageImage) {
	for i := range pages {
		pn := pages[i].PN
		p := page(pages[i].Words)
		m.pages[pn] = &p
		if e := &m.tlb[tlbIdx(pn)]; e.pn == pn {
			*e = tlbEntry{}
		}
	}
}
