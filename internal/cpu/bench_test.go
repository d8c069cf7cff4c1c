package cpu

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// benchProgram loops forever over a 64 KB working set — large enough to miss
// in L1D — mixing loads, stores, ALU ops, and branches, so a single Cycle
// exercises every pipeline stage.
func benchProgram() (*isa.Program, *mem.Memory) {
	prog := isa.MustAssemble(`
		movi r1, 0
	loop:
		ld   r2, 0x40000(r1)
		addi r2, r2, 1
		st   r2, 0x40000(r1)
		addi r1, r1, 64
		andi r1, r1, 65535
		jmp  loop
	`)
	return prog, mem.New()
}

// BenchmarkRobBitmap isolates the ready-selection kernel the issue stage
// runs every cycle: pick the Width oldest of the ready entries in a 192-slot
// ROB by a TrailingZeros64 walk of the ready bitmap in ring order from the
// ROB head, which is age order by construction. The synthetic state is 48
// ready entries (every fourth ring position) scattered through a wrapped ROB
// window.

const (
	benchRobSlots = 192
	benchRobHead  = 77
	benchRobWidth = 4
)

func BenchmarkRobBitmap(b *testing.B) {
	bm := make([]uint64, (benchRobSlots+63)/64)
	for i := 0; i < benchRobSlots; i += 4 {
		bmSet(bm, (benchRobHead+i)%benchRobSlots)
	}
	var picked [benchRobWidth]int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		var it bmIter
		it.init(bm, benchRobHead)
		for s, ok := it.next(); ok && n < benchRobWidth; s, ok = it.next() {
			picked[n] = s
			n++
		}
	}
	_ = picked
}

// BenchmarkCoreCycle measures the per-cycle cost of the simulation kernel.
// The acceptance bar is 0 allocs/op: the hot path must run entirely on
// persistent, reused buffers.
func BenchmarkCoreCycle(b *testing.B) {
	prog, image := benchProgram()
	c := newTestCore(prog, image, nil)
	var now uint64
	// Warm every internal buffer to steady-state capacity.
	for ; now < 50_000; now++ {
		c.Cycle(now)
	}
	if c.Halted() {
		b.Fatal("benchmark core halted during warmup")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Cycle(now)
		now++
	}
}
