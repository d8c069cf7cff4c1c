// Package workload provides the 18 synthetic benchmark kernels standing in
// for the paper's SPEC CPU2006 suite, plus the FOA-based multiprogrammed mix
// selection of §V-A.
//
// Each kernel is named after the SPEC benchmark whose published memory and
// control-flow character it mimics — streaming, strided, stencil,
// pointer-chasing, indexed gather, dynamic-programming, or compute-bound /
// L1-resident — because B-Fetch's claims are about classes of access pattern
// interacting with branchy control flow, not about SPEC's exact instruction
// mixes (see DESIGN.md §1 for the substitution argument). Builds are
// deterministic: the same workload always produces the same program and
// memory image.
package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/isa"
	"repro/internal/mem"
)

// Workload is one benchmark kernel.
type Workload struct {
	Name        string
	Description string
	Character   string // streaming | strided | stencil | pointer | gather | dp | compute | region | mixed
	// MemoryIntensive marks kernels whose working set exceeds the LLC;
	// these are the ones the paper's "prefetch sensitive" set comes from.
	MemoryIntensive bool

	build func() (*isa.Program, *mem.Memory)

	// cache holds the one real build; Workload is copied by value through
	// the registry and All(), and the shared pointer lets every copy reuse
	// it. Initialized by register and New.
	cache *buildCache
}

type buildCache struct {
	once sync.Once
	prog *isa.Program
	img  *mem.Memory // frozen; handed out as copy-on-write forks

	// seal marks a registry kernel, whose image lives until exit and is
	// therefore sealed outside the Go heap (mem.Memory.Seal) rather than
	// frozen on it.
	seal bool
}

// Build materializes the program and its initial memory image. The builder
// runs once per workload: the image is frozen and each call returns a
// copy-on-write fork of it, so callers may still mutate their image freely
// (and cheaply — a fork shares the frozen pages until written). Returning
// the same *isa.Program every time also lets per-program caches downstream
// (emu.Compile's threaded code) hit across checkpoints and experiment runs.
func (w Workload) Build() (*isa.Program, *mem.Memory) {
	prog, img := w.built()
	return prog, img.Fork()
}

// built returns the memoized program and frozen image, which callers must
// not write. Every Workload with a builder comes from register or New, both
// of which attach the cache; a zero Workload has neither and panics.
func (w Workload) built() (*isa.Program, *mem.Memory) {
	c := w.cache
	c.once.Do(func() {
		c.prog, c.img = w.build()
		if c.seal {
			c.img.Seal()
		} else {
			c.img.Freeze()
		}
	})
	return c.prog, c.img
}

// New wraps a user-supplied program builder as a Workload, so downstream
// code can simulate its own kernels alongside the built-in suite. The
// builder must be deterministic. The built image stays frozen on the Go
// heap, unlike the suite's sealed ones: a custom Workload may be dropped,
// and its image must then be collectable, while sealed memory is never
// unmapped.
func New(name, description, character string, memoryIntensive bool,
	build func() (*isa.Program, *mem.Memory)) Workload {
	if build == nil {
		panic("workload: nil build")
	}
	return Workload{
		Name:            name,
		Description:     description,
		Character:       character,
		MemoryIntensive: memoryIntensive,
		build:           build,
		cache:           &buildCache{},
	}
}

var registry []Workload

func register(w Workload) {
	if w.build == nil {
		panic("workload: nil build for " + w.Name)
	}
	w.cache = &buildCache{seal: true}
	registry = append(registry, w)
}

// All returns the 18 kernels in the paper's (alphabetical) order.
func All() []Workload {
	out := append([]Workload(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns the workload names in order.
func Names() []string {
	ws := All()
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name
	}
	return names
}

// ByName looks a workload up.
func ByName(name string) (Workload, error) {
	for _, w := range registry {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// ---------------------------------------------------------------- helpers --

// Register conventions shared by the kernel builders, so the generated code
// reads consistently:
//
//	r1–r8    data / scratch
//	r9       address temporary
//	r10–r14  loop counters
//	r16–r23  array base registers
//	r24–r27  secondary temporaries
const (
	tmpA  = 1
	tmpB  = 2
	tmpC  = 3
	tmpD  = 4
	acc   = 5
	tmpE  = 6
	tmpF  = 7
	tmpG  = 8
	addr  = 9
	cnt0  = 10
	cnt1  = 11
	cnt2  = 12
	cnt3  = 13
	base0 = 16
	base1 = 17
	base2 = 18
	base3 = 19
	base4 = 20
	ptr   = 21
	idx   = 22
	lim   = 23
)

func r(n int) isa.Reg { return isa.R(n) }

// fillRand fills [base, base+bytes) with seeded pseudo-random words.
func fillRand(m *mem.Memory, base uint64, bytes int, rng *rand.Rand) {
	for off := 0; off < bytes; off += 8 {
		m.WriteInt64(base+uint64(off), rng.Int63n(1<<40))
	}
}

// fillSeq fills with word index values (useful for index arrays).
func fillSeq(m *mem.Memory, base uint64, words int) {
	for i := 0; i < words; i++ {
		m.WriteInt64(base+8*uint64(i), int64(i))
	}
}

// permutation writes a random permutation cycle over `nodes` records of
// recordBytes each, starting at base: record i's first word holds the
// address of the next record in the cycle. The cycle visits every node, so
// a pointer chase never escapes the region.
func permutation(m *mem.Memory, base uint64, nodes, recordBytes int, rng *rand.Rand) {
	perm := rng.Perm(nodes)
	for i := 0; i < nodes; i++ {
		from := base + uint64(perm[i])*uint64(recordBytes)
		to := base + uint64(perm[(i+1)%nodes])*uint64(recordBytes)
		m.WriteInt64(from, int64(to))
	}
}

// outerLoop wraps a body in a high-trip-count loop so kernels run for any
// instruction budget the experiments choose. Counter cnt0 is reserved.
func outerLoop(b *isa.Builder, trips int64, body func()) {
	b.Movi(r(cnt0), trips)
	top := b.Here()
	body()
	b.Addi(r(cnt0), r(cnt0), -1)
	b.Bnez(r(cnt0), top)
	b.Halt()
}
