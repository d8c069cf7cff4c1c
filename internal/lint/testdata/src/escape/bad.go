// Package escape is the golden fixture for the hot-path allocation gate.
// TestEscapeGolden builds it with the diagnostic flags for real, so the
// wants below assert against live toolchain output rather than recordings.
package escape

import (
	"fmt"
	"strings"
)

// leak returns the address of a local: the compiler moves v to the heap.
//
//bfetch:hotpath
func leak(n int) *int {
	v := n + 1 // want "escapes to heap inside //bfetch:hotpath leak"
	return &v
}

// big is deliberately uninlinable; the pragma pins that verdict so the
// fixture does not drift with inlining-cost tuning across toolchains.
//
//go:noinline
func big(xs []int) int {
	s := 0
	for i := 0; i < len(xs); i++ {
		s += xs[i] * xs[i&1]
	}
	return s
}

//bfetch:hotpath
func drive(xs []int) int {
	return big(xs) // want "call to big in //bfetch:hotpath drive is not inlined"
}

var sink []uint64

// tick reaches grow through the un-annotated step. Both helpers inline, and
// the compiler reports grow's escape at grow itself and again at each
// inlined call site, so every hot caller sees it.
//
//bfetch:hotpath
func tick(n int) {
	step(n) // want "escapes to heap inside //bfetch:hotpath tick"
}

func step(n int) {
	sink = grow(n) // want "escapes to heap inside step (reached from //bfetch:hotpath escape.tick)"
}

func grow(n int) []uint64 {
	return make([]uint64, n) // want "escapes to heap inside grow (reached from //bfetch:hotpath escape.tick)"
}

// pad calls out of the module into a package that allocates: the compiler
// reports nothing at this line, so the foreign-call rule has to.
//
//bfetch:hotpath
func pad(n int) int {
	return len(strings.Repeat("x", n)) // want "call to strings.Repeat inside //bfetch:hotpath pad leaves the module"
}

// peek calls a method on a value of a type declared outside the module:
// the callee is a strings function all the same.
//
//bfetch:hotpath
func peek(r *strings.Reader) int {
	b, _ := r.ReadByte() // want "call to (*strings.Reader).ReadByte inside //bfetch:hotpath peek leaves the module"
	return int(b)
}

// bceBad keeps a data-dependent bounds check inside an annotated loop:
// nothing bounds idx's elements against len(xs).
func bceBad(xs []int, idx []int) int {
	s := 0
	//bfetch:bce
	for _, i := range idx {
		s += xs[i] // want "bce loop retains a bounds check"
	}
	return s
}

// fault's error exit is a hatched cold path: neither the boxed argument nor
// the foreign call is a finding.
//
//bfetch:hotpath
func fault(pc uint64) error {
	if pc == 0 {
		return fmt.Errorf("fault at pc %#x", pc) //bfetch:alloc-ok once-per-run exit
	}
	return nil
}
