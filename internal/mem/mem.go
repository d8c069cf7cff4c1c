// Package mem provides the sparse, paged, byte-addressable memory backing
// every simulated address space. Pages are allocated on first touch, so a
// workload with a multi-gigabyte address range costs only its resident set.
//
// An address space can be forked copy-on-write (Freeze/Fork): forks share
// one frozen read-only page table and privately copy a page only on first
// write. Checkpoint restore (internal/ckpt) leans on this so N concurrent
// simulations booted from one fast-forward image share its footprint. An
// image kept until exit can be sealed instead (Seal): frozen the same way,
// with its pages moved into a read-only mapping outside the Go heap.
package mem

// PageBytes is the allocation granularity.
const PageBytes = 4096

// A page stores its bytes as 64-bit little-endian words: byte addr%8 of a
// word is bits [8k, 8k+8) of page[addr%PageBytes/8]. Keeping the hot
// currency (aligned 64-bit words, the only width the ISA loads and stores)
// as the storage format makes Read64/Write64 a single indexed access —
// small enough for the compiler to inline into the emulator loops.
type page [PageBytes / 8]uint64

// Memory is one simulated address space: a private writable page table over
// an optional frozen read-only base shared with other forks. The zero value
// is not usable; call New. Memory is not safe for concurrent mutation; each
// simulated core owns its own address space (the workloads are
// multiprogrammed, not shared memory). A frozen base, by contrast, is
// immutable and safely shared across goroutines — see Freeze.
type Memory struct {
	pages map[uint64]*page // private, writable
	ro    map[uint64]*page // frozen shared base (nil if never forked)

	// sealed records that ro's pages live in a read-only mapping outside
	// the Go heap (see Seal); any Freeze that rebuilds ro clears it.
	sealed bool

	// Direct-mapped software TLB for pageFor: Read64/Write64 sit on the
	// simulator's hottest path, and map lookups (hash, probe) dominate them
	// once a working set spans more than a page or two. Each entry caches
	// one translation; rw records whether the cached page is privately
	// owned (writable), so a read-only hit still falls through on writes
	// and the copy-on-write path runs. Entries go stale only at Freeze
	// (private pages become shared), which flushes the whole table.
	tlb [tlbSize]tlbEntry
}

// tlbSize is the number of direct-mapped translation entries; 2048 gives an
// 8 MB reach, covering the workload suite's largest hot region (lbm's two
// 4 MB grids) at a 48 KB cost per address space.
const tlbSize = 2048

type tlbEntry struct {
	pn uint64
	p  *page
	rw bool
}

// tlbIdx folds high page-number bits into the index. Workload images place
// distinct regions at addresses like 0x1000_0000 and 0x2000_0000, which are
// congruent modulo any power-of-two table size; a plain pn&mask index would
// make corresponding pages of two streamed regions evict each other every
// access.
func tlbIdx(pn uint64) uint64 { return (pn ^ (pn >> 11)) & (tlbSize - 1) }

// New returns an empty address space.
func New() *Memory {
	return &Memory{pages: make(map[uint64]*page)}
}

// pageFor translates addr to its backing page: TLB probe, then the private
// page table, then the shared read-only base. With alloc set, a write to a
// shared page privatizes a copy and a write to untouched memory faults in a
// fresh page — each allocates once per page, then the TLB absorbs every
// later access, so the fault exits are hatched cold paths.
//
//bfetch:hotpath
func (m *Memory) pageFor(addr uint64, alloc bool) *page {
	pn := addr / PageBytes
	e := &m.tlb[tlbIdx(pn)]
	if e.p != nil && e.pn == pn && (e.rw || !alloc) {
		return e.p
	}
	if p := m.pages[pn]; p != nil {
		e.pn, e.p, e.rw = pn, p, true
		return p
	}
	if m.ro != nil {
		if q := m.ro[pn]; q != nil {
			if !alloc {
				e.pn, e.p, e.rw = pn, q, false
				return q
			}
			cp := *q //bfetch:alloc-ok first write to a shared page: copy it private
			m.pages[pn] = &cp
			e.pn, e.p, e.rw = pn, &cp, true
			return &cp
		}
	}
	if !alloc {
		return nil
	}
	p := new(page) //bfetch:alloc-ok
	m.pages[pn] = p
	e.pn, e.p, e.rw = pn, p, true
	return p
}

// Read8 returns the byte at addr; untouched memory reads as zero.
//
//bfetch:hotpath
func (m *Memory) Read8(addr uint64) byte {
	if p := m.pageFor(addr, false); p != nil {
		off := addr % PageBytes
		return byte(p[off/8] >> (8 * (off % 8)))
	}
	return 0
}

// Write8 stores one byte at addr.
//
//bfetch:hotpath
func (m *Memory) Write8(addr uint64, v byte) {
	p := m.pageFor(addr, true)
	off := addr % PageBytes
	sh := 8 * (off % 8)
	p[off/8] = p[off/8]&^(0xff<<sh) | uint64(v)<<sh
}

// Read64 returns the little-endian 64-bit word at addr. The TLB-hit aligned
// case — the only access the ISA's LD issues on every real workload — is a
// single indexed load; TLB misses and misaligned accesses take the slow
// path. Read64 itself is too costly to inline (the call to read64Slow puts
// it over the inlining budget), so the emulator loops probe with the
// inlinable Load64 and call Read64 only on a miss.
//
//bfetch:hotpath
func (m *Memory) Read64(addr uint64) uint64 {
	pn := addr / PageBytes
	e := &m.tlb[tlbIdx(pn)]
	if e.p != nil && e.pn == pn && addr&7 == 0 {
		return e.p[addr%PageBytes/8]
	}
	return m.read64Slow(addr)
}

// read64Slow handles the TLB-missing and misaligned tails of Read64.
//
//bfetch:hotpath
func (m *Memory) read64Slow(addr uint64) uint64 {
	if addr&7 == 0 {
		p := m.pageFor(addr, false)
		if p == nil {
			return 0
		}
		return p[addr%PageBytes/8]
	}
	var v uint64
	for i := uint64(0); i < 8; i++ {
		v |= uint64(m.Read8(addr+i)) << (8 * i)
	}
	return v
}

// Write64 stores a little-endian 64-bit word at addr. A hit requires write
// ownership (e.rw), so copy-on-write faults always reach pageFor. Like
// Read64 it does not inline; the emulator loops probe with Store64 first.
//
//bfetch:hotpath
func (m *Memory) Write64(addr uint64, v uint64) {
	pn := addr / PageBytes
	e := &m.tlb[tlbIdx(pn)]
	if e.p != nil && e.pn == pn && e.rw && addr&7 == 0 {
		e.p[addr%PageBytes/8] = v
		return
	}
	m.write64Slow(addr, v)
}

// Load64 is the inline-probe load for emulation hot loops: it returns the
// word at addr only when the translation is TLB-cached and the access is
// aligned, and reports whether it hit. It is small enough to inline at the
// call site; on a miss the caller falls back to Read64, which fills the TLB
// so the next probe of the page hits. (A wrapper that did the fallback
// itself could not inline: the Go inliner prices any call to a
// non-inlinable function above the whole inlining budget.)
func (m *Memory) Load64(addr uint64) (uint64, bool) {
	pn := addr / PageBytes
	e := &m.tlb[tlbIdx(pn)]
	if e.p != nil && e.pn == pn && addr&7 == 0 {
		return e.p[addr%PageBytes/8], true
	}
	return 0, false
}

// Store64 is the inline-probe store counterpart of Load64. A hit requires
// write ownership of the page, so copy-on-write faults always miss and
// reach the Write64 fallback.
func (m *Memory) Store64(addr uint64, v uint64) bool {
	pn := addr / PageBytes
	e := &m.tlb[tlbIdx(pn)]
	if e.p != nil && e.pn == pn && e.rw && addr&7 == 0 {
		e.p[addr%PageBytes/8] = v
		return true
	}
	return false
}

// write64Slow handles the TLB-missing, copy-on-write and misaligned tails
// of Write64.
//
//bfetch:hotpath
func (m *Memory) write64Slow(addr uint64, v uint64) {
	if addr&7 == 0 {
		m.pageFor(addr, true)[addr%PageBytes/8] = v
		return
	}
	for i := uint64(0); i < 8; i++ {
		m.Write8(addr+i, byte(v>>(8*i)))
	}
}

// ReadInt64 and WriteInt64 are signed conveniences used by the emulators.

//bfetch:hotpath
func (m *Memory) ReadInt64(addr uint64) int64 { return int64(m.Read64(addr)) }

//bfetch:hotpath
func (m *Memory) WriteInt64(addr uint64, v int64) { m.Write64(addr, uint64(v)) }

// FootprintBytes reports the resident size (touched pages × page size).
// Shared frozen pages count once per address space; a fresh fork therefore
// reports the full image size even though the pages are physically shared —
// it is an architectural measure, not an allocator one.
func (m *Memory) FootprintBytes() int { return m.distinctPages() * PageBytes }

// PrivateBytes reports only the pages this address space owns outright:
// pages written since the last Freeze/Fork. For a copy-on-write fork this
// is the true incremental memory cost over the shared base.
func (m *Memory) PrivateBytes() int { return len(m.pages) * PageBytes }

// SharedBytes reports the bytes a and b share physically: pages whose
// visible contents in both are one frozen page. It measures how much of a
// copy-on-write chain is stored once.
func SharedBytes(a, b *Memory) int {
	n := 0
	for pn, p := range a.ro {
		if a.pages[pn] == nil && b.pages[pn] == nil && b.ro[pn] == p {
			n++
		}
	}
	return n * PageBytes
}

func (m *Memory) distinctPages() int {
	n := len(m.pages)
	for pn := range m.ro {
		if _, shadowed := m.pages[pn]; !shadowed {
			n++
		}
	}
	return n
}

// Freeze seals the current contents into a shared read-only base: private
// pages merge over any existing base into a new frozen page table, and the
// private layer restarts empty. Subsequent writes copy pages back out
// (copy-on-write), so the frozen base is immutable from then on. A private
// page byte-identical to the base page it shadows is dropped in favour of
// that base page, so a page rewritten with its old contents stays shared.
//
// Freeze is idempotent, and on an already-frozen Memory with no private
// pages it is read-only — which makes Fork safe to call concurrently on
// such a Memory (the checkpoint-restore pattern: freeze once at capture,
// fork many times in parallel).
func (m *Memory) Freeze() { m.FreezeWith(nil) }

// FreezeWith is Freeze that also shares with peer's frozen base: a private
// page byte-identical to peer's frozen page at the same number becomes that
// page. Only frozen pages are ever shared, so neither side can write
// through the other. peer is only read (its frozen base is immutable), so
// many FreezeWith calls may name one peer concurrently; a nil peer is
// plain Freeze.
func (m *Memory) FreezeWith(peer *Memory) {
	if len(m.pages) == 0 && m.ro != nil {
		return
	}
	var shared map[uint64]*page
	if peer != nil {
		shared = peer.ro
	}
	base := make(map[uint64]*page, len(m.pages)+len(m.ro))
	for pn, p := range m.ro {
		base[pn] = p
	}
	for pn, p := range m.pages {
		if q := m.ro[pn]; q != nil && *q == *p {
			continue
		}
		if q := shared[pn]; q != nil && *q == *p {
			p = q
		}
		base[pn] = p
	}
	m.ro, m.sealed = base, false
	m.pages = make(map[uint64]*page)
	// The TLB may hold pages that just became shared; drop every claim of
	// write ownership.
	m.tlb = [tlbSize]tlbEntry{}
}

// Fork returns a copy-on-write child of this address space: the child (and,
// from now on, the parent) reads through a shared frozen snapshot of the
// current contents and copies a page privately on first write. Forking is
// O(resident pages) the first time (the Freeze) and O(1) afterwards, and
// the forks share the snapshot's footprint.
//
// Fork itself mutates the parent unless it is already frozen with no
// private writes; to fork one image from many goroutines, Freeze it first.
func (m *Memory) Fork() *Memory {
	m.Freeze()
	return &Memory{pages: make(map[uint64]*page), ro: m.ro, sealed: m.sealed}
}

// Clone returns a deep copy of the address space. Simulation runs that
// compare configurations start from clones of one initialized image so that
// stores in one run cannot leak into another. Unlike Fork, a clone shares
// nothing with its origin.
func (m *Memory) Clone() *Memory {
	c := New()
	for pn, p := range m.ro {
		cp := *p
		c.pages[pn] = &cp
	}
	for pn, p := range m.pages {
		cp := *p
		c.pages[pn] = &cp
	}
	return c
}

// Equal reports whether two address spaces have identical contents
// (zero-filled pages compare equal to absent pages).
func Equal(a, b *Memory) bool {
	return a.coveredBy(b) && b.coveredBy(a)
}

// lookup returns the page visible at pn, private layer first.
func (m *Memory) lookup(pn uint64) *page {
	if p := m.pages[pn]; p != nil {
		return p
	}
	return m.ro[pn]
}

func (m *Memory) coveredBy(o *Memory) bool {
	check := func(pn uint64, p *page) bool {
		q := o.lookup(pn)
		if q == nil {
			return *p == (page{})
		}
		return *p == *q
	}
	for pn, p := range m.pages {
		if !check(pn, p) {
			return false
		}
	}
	for pn, p := range m.ro {
		if _, shadowed := m.pages[pn]; shadowed {
			continue
		}
		if !check(pn, p) {
			return false
		}
	}
	return true
}
