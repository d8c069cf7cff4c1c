package escape

import (
	"math/bits"
	"time"
)

// bceGood indexes with the range induction variable: the compiler proves
// every access in bounds and the //bfetch:bce claim holds.
func bceGood(xs []uint64) uint64 {
	var s uint64
	//bfetch:bce
	for i := range xs {
		s += xs[i]
	}
	return s
}

// stack keeps everything on the stack: no escape facts in a hotpath body.
//
//bfetch:hotpath
func stack(n int) int {
	v := n * 2
	return v + 1
}

// lowest reaches the un-annotated mix, which allocates nothing, and calls
// math/bits, which the foreign-call rule allows.
//
//bfetch:hotpath
func lowest(w uint64) int {
	return bits.TrailingZeros64(mix(w))
}

func mix(w uint64) uint64 { return w ^ w>>7 }

// scratch holds two constructs a syntax check would flag but the compiler
// keeps on the stack: a constant-size make and an immediately invoked
// closure.
//
//bfetch:hotpath
func scratch(n int) int {
	_ = make([]uint64, 4)
	func() { n++ }()
	return n
}

// ticks converts to a named type declared outside the module. A conversion
// is not a call, so the foreign-call rule does not apply.
//
//bfetch:hotpath
func ticks(n int64) time.Duration {
	return time.Duration(n) * time.Nanosecond
}
