//go:build linux || darwin

package mem

import (
	"sort"
	"syscall"
	"unsafe"
)

// Seal is Freeze for an image that lives as long as the process. After
// freezing, it copies the frozen pages, in page-number order, into one
// anonymous mapping outside the Go heap and maps it read-only. The garbage
// collector neither scans those pages (they hold no pointers) nor counts
// them toward its heap goal, so immortal image data no longer buys an equal
// amount of collector headroom. A stray write into a sealed page faults
// instead of silently reaching every fork; writes through the Memory API
// copy the page privately first, exactly as for any frozen page, so Fork,
// FreezeWith, Diff, Clone and Equal behave as before.
//
// The mapping is never unmapped: seal only images that are kept until
// exit. Seal is idempotent. If the mapping cannot be made, the image stays
// frozen on the heap, which costs memory and never changes a result.
func (m *Memory) Seal() {
	m.Freeze()
	if m.sealed || len(m.ro) == 0 {
		return
	}
	pns := make([]uint64, 0, len(m.ro))
	for pn := range m.ro {
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	buf, err := syscall.Mmap(-1, 0, len(pns)*PageBytes,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return
	}
	pages := unsafe.Slice((*page)(unsafe.Pointer(unsafe.SliceData(buf))), len(pns))
	ro := make(map[uint64]*page, len(pns))
	for i, pn := range pns {
		pages[i] = *m.ro[pn]
		ro[pn] = &pages[i]
	}
	if syscall.Mprotect(buf, syscall.PROT_READ) != nil {
		_ = syscall.Munmap(buf) // a failed unmap only leaks the region
		return
	}
	m.ro, m.sealed = ro, true
	// The TLB may still translate to the heap copies; drop them so they
	// can be collected.
	m.tlb = [tlbSize]tlbEntry{}
}
