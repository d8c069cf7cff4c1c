package cpu

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/prefetch"
)

// Edge-case and microarchitectural-behaviour tests beyond the differential
// suite in core_test.go.

func TestROBFillStall(t *testing.T) {
	// A load that misses to DRAM at the head blocks commit; the ROB must
	// fill and dispatch must stall rather than wrap or corrupt state.
	b := isa.NewBuilder()
	b.Movi(isa.R(1), 0x100000)
	b.Ld(isa.R(2), isa.R(1), 0) // cold DRAM miss (~230 cycles)
	for i := 0; i < 400; i++ {  // more than ROB entries of fodder
		b.Addi(isa.R(3), isa.R(3), 1)
	}
	b.Halt()
	core := newTestCore(b.MustProgram(), mem.New(), nil)
	if _, err := core.Run(1<<20, 1<<20); err != nil {
		t.Fatal(err)
	}
	if !core.Halted() {
		t.Fatal("did not halt")
	}
	if core.Regs()[3] != 400 {
		t.Errorf("r3 = %d", core.Regs()[3])
	}
}

func TestWrongPathLoadsCounted(t *testing.T) {
	// A hard-to-predict branch guards a load; wrong-path speculation should
	// issue (and squash) some of those loads.
	prog := isa.MustAssemble(`
		movi r1, 12345
		movi r2, 300
		movi r7, 0x50000
	loop:
		slli r4, r1, 13
		xor  r1, r1, r4
		srli r4, r1, 7
		xor  r1, r1, r4
		andi r5, r1, 1
		beqz r5, skip
		ld   r6, 0(r7)
		addi r7, r7, 64
	skip:
		addi r2, r2, -1
		bnez r2, loop
		halt
	`)
	core := newTestCore(prog, mem.New(), nil)
	if _, err := core.Run(1<<20, 1<<21); err != nil {
		t.Fatal(err)
	}
	if core.Stats.BranchMispredicts == 0 {
		t.Skip("predictor got everything right; nothing to observe")
	}
	if core.Stats.WrongPathLoads == 0 {
		t.Error("mispredicts occurred but no wrong-path loads were counted")
	}
}

func TestIndirectJumpViaBTB(t *testing.T) {
	// A JR with a stable target: after BTB training, fetch should follow it
	// without stalling, visible as improved IPC versus the first iterations.
	base := int64(isa.DefaultTextBase)
	b := isa.NewBuilder()
	b.Movi(isa.R(1), 2000) // iterations
	loop := b.Here()
	b.Movi(isa.R(2), base+4*4) // address of 'land'
	b.Jr(isa.R(2))
	b.Nop() // skipped
	// land:
	b.Addi(isa.R(1), isa.R(1), -1)
	b.Bnez(isa.R(1), loop)
	b.Halt()
	core := newTestCore(b.MustProgram(), mem.New(), nil)
	if _, err := core.Run(1<<20, 1<<20); err != nil {
		t.Fatal(err)
	}
	if !core.Halted() {
		t.Fatal("did not halt")
	}
	if ipc := core.Stats.IPC(); ipc < 0.8 {
		t.Errorf("JR loop IPC = %.3f; BTB steering seems broken", ipc)
	}
}

func TestPrefetchIssueAndDropStats(t *testing.T) {
	// A prefetcher that always asks for the same two blocks: the first
	// requests issue, later ones are dropped as resident.
	pf := &fixedPF{addrs: []uint64{0x77000, 0x77040}}
	prog := isa.MustAssemble(`
		movi r10, 500
	loop:
		addi r10, r10, -1
		bnez r10, loop
		halt
	`)
	core := newTestCore(prog, mem.New(), pf)
	if _, err := core.Run(1<<20, 1<<20); err != nil {
		t.Fatal(err)
	}
	if fills := core.Hierarchy().L1D.Stats.PrefetchFills; fills != 2 {
		t.Errorf("issued = %d, want 2", fills)
	}
	if core.Stats.PrefetchDropped == 0 {
		t.Error("no drops despite repeated requests")
	}
}

type fixedPF struct {
	prefetch.Base
	addrs []uint64
}

func (f *fixedPF) Name() string { return "fixed" }
func (f *fixedPF) AppendTick(dst []prefetch.Request, _ uint64) []prefetch.Request {
	for _, a := range f.addrs {
		dst = append(dst, prefetch.Request{Addr: a, LoadPC: 0x1000})
	}
	return dst
}

func TestHaltedCoreCycleIsNoop(t *testing.T) {
	core := newTestCore(isa.MustAssemble("halt"), mem.New(), nil)
	if _, err := core.Run(10, 1000); err != nil {
		t.Fatal(err)
	}
	cycles := core.Stats.Cycles
	core.Cycle(cycles + 1)
	core.Cycle(cycles + 2)
	if core.Stats.Cycles != cycles {
		t.Error("halted core kept counting cycles")
	}
}

func TestRunCycleBound(t *testing.T) {
	// An infinite loop must stop at the cycle bound without error.
	core := newTestCore(isa.MustAssemble("loop: jmp loop"), mem.New(), nil)
	n, err := core.Run(1<<40, 500)
	if err != nil {
		t.Fatal(err)
	}
	if n != 500 {
		t.Errorf("cycles = %d, want 500", n)
	}
	if core.Halted() {
		t.Error("infinite loop halted")
	}
}

func TestSquashRestoresRATAcrossCommittedProducers(t *testing.T) {
	// Construct a case where a producer commits while a mispredicting
	// branch is in flight: the RAT restore must fall back to the committed
	// register file, not a recycled ROB slot. The xorshift pattern forces
	// mispredicts; correctness is checked architecturally.
	prog := isa.MustAssemble(`
		movi r1, 99
		movi r2, 400
		movi r3, 0
	loop:
		mul  r4, r1, r1      ; long-latency producer
		slli r5, r1, 13
		xor  r1, r1, r5
		srli r5, r1, 7
		xor  r1, r1, r5
		andi r6, r1, 1
		beqz r6, skip
		add  r3, r3, r4      ; consumer of r4 across the branch
	skip:
		addi r2, r2, -1
		bnez r2, loop
		halt
	`)
	runBoth(t, prog, mem.New(), 1<<20)
}

func TestFetchStopsAtProgramEnd(t *testing.T) {
	// Fall through past the last instruction (no halt on the wrong path):
	// fetch must stall gracefully, and the committed path must still halt.
	prog := isa.MustAssemble(`
		movi r1, 1
		bnez r1, done     ; always taken, but predictor may guess wrong
		addi r2, r2, 1
	done:
		halt
	`)
	core := newTestCore(prog, mem.New(), nil)
	if _, err := core.Run(1000, 100000); err != nil {
		t.Fatal(err)
	}
	if !core.Halted() {
		t.Error("did not halt")
	}
	if core.Regs()[2] != 0 {
		t.Errorf("wrong-path effect committed: r2=%d", core.Regs()[2])
	}
}

func TestMulLatencyConfig(t *testing.T) {
	// A serial MUL chain's runtime scales with the configured latency.
	build := func() *isa.Program {
		b := isa.NewBuilder()
		b.Movi(isa.R(1), 3)
		for i := 0; i < 500; i++ {
			b.Mul(isa.R(1), isa.R(1), isa.R(1))
		}
		b.Halt()
		return b.MustProgram()
	}
	cycles := map[uint64]uint64{}
	for _, lat := range []uint64{1, 4} {
		cfg := DefaultConfig()
		cfg.MulLatency = lat
		dram := cache.NewDRAM()
		llc := cache.New(cache.Config{Name: "L3", Bytes: 1 << 20, Ways: 16, Latency: 20}, dram)
		hier := cache.NewHierarchy(cache.DefaultHierarchyConfig(), llc, 0)
		core := New(cfg, build(), mem.New(), hier,
			branch.New(branch.DefaultConfig()),
			branch.NewConfidence(branch.DefaultConfidenceConfig()), prefetch.None{})
		if _, err := core.Run(1<<20, 1<<20); err != nil {
			t.Fatal(err)
		}
		cycles[lat] = core.Stats.Cycles
	}
	if cycles[4] < cycles[1]+1000 {
		t.Errorf("mul latency ignored: %v", cycles)
	}
}

func TestCommitWidthBound(t *testing.T) {
	// IPC can never exceed the configured width.
	b := isa.NewBuilder()
	for i := 0; i < 4000; i++ {
		b.Addi(isa.R(1+i%16), isa.RZero, 1)
	}
	b.Halt()
	for _, w := range []int{2, 4} {
		cfg := DefaultConfig().WithWidth(w)
		dram := cache.NewDRAM()
		llc := cache.New(cache.Config{Name: "L3", Bytes: 1 << 20, Ways: 16, Latency: 20}, dram)
		hier := cache.NewHierarchy(cache.DefaultHierarchyConfig(), llc, 0)
		core := New(cfg, b.MustProgram(), mem.New(), hier,
			branch.New(branch.DefaultConfig()),
			branch.NewConfidence(branch.DefaultConfidenceConfig()), prefetch.None{})
		if _, err := core.Run(1<<20, 1<<20); err != nil {
			t.Fatal(err)
		}
		if ipc := core.Stats.IPC(); ipc > float64(w) {
			t.Errorf("width %d: IPC %.3f exceeds width", w, ipc)
		}
	}
}

// parkedLoadKernel builds a loop in which each iteration's store takes its
// address from a pointer load that misses to DRAM, with a younger
// independent load queued behind that store (parked on disambiguation for
// the whole miss) and a same-address reload the store forwards to.
func parkedLoadKernel(iters int) (*isa.Program, *mem.Memory) {
	const ptrs, targets, other = 0x100000, 0x800000, 0x200000
	m := mem.New()
	for i := 0; i < iters; i++ {
		m.WriteInt64(uint64(ptrs+i*4096), int64(targets+i*64))
	}
	b := isa.NewBuilder()
	b.Movi(isa.R(1), ptrs)
	b.Movi(isa.R(7), other)
	b.Movi(isa.R(10), int64(iters))
	loop := b.Here()
	b.Ld(isa.R(2), isa.R(1), 0)  // pointer: a new page each iteration
	b.St(isa.R(10), isa.R(2), 0) // address unknown until the pointer arrives
	b.Ld(isa.R(4), isa.R(7), 0)  // younger, independent: parked behind the store
	b.Ld(isa.R(5), isa.R(2), 0)  // same address as the store: forwarded
	b.Addi(isa.R(1), isa.R(1), 4096)
	b.Addi(isa.R(7), isa.R(7), 8)
	b.Addi(isa.R(10), isa.R(10), -1)
	b.Bnez(isa.R(10), loop)
	b.Halt()
	return b.MustProgram(), m
}

func TestParkedLoadDoesNotPinClock(t *testing.T) {
	// A load parked behind a store whose address is still in flight to DRAM
	// cannot pass until that store resolves, so it must not hold the event
	// clock to now+1. The check covers every cycle in which that parked load
	// is the only candidate for next-cycle work: nothing ready, nothing to
	// fetch or dispatch, no entry finishing or committing at now+1.
	prog, m := parkedLoadKernel(8)
	core := newTestCore(prog, m, nil)
	busy := func(now uint64) bool {
		if bmAny(core.readyBM) || core.fqN > 0 || core.fetchPC >= 0 && core.fetchResumeAt <= now+1 {
			return true
		}
		if core.rob[core.headSlot].state == sDone && core.doneAt[core.headSlot] <= now+1 {
			return true
		}
		for s := range core.rob {
			if bmHas(core.inflightBM, s) && core.doneAt[s] <= now+1 {
				return true
			}
		}
		return false
	}
	quiet := 0
	for now := uint64(0); !core.Halted() && now < 1<<20; now++ {
		core.Cycle(now)
		if core.sqUnknown == 0 || !bmAny(core.pendBM) || busy(now) {
			continue
		}
		quiet++
		if next := core.NextEvent(now); next <= now+1 {
			t.Fatalf("cycle %d: load parked behind an unresolved store pins the next event to %d", now, next)
		}
	}
	if !core.Halted() {
		t.Fatal("did not halt")
	}
	if quiet < 8*100 {
		t.Fatalf("only %d quiet cycles with a load parked behind an unresolved store; the kernel no longer exercises the gap", quiet)
	}
	if core.Stats.StoreForwards == 0 {
		t.Error("the same-address reload was never forwarded")
	}
}

func TestROBEntrySize(t *testing.T) {
	// Every dispatch zero-fills its ROB entry and the schedulers touch
	// entries every cycle. The completion times (Core.doneAt), the wakeup
	// lists (Core.wake) and store data (Core.storeQ) live beside the ROB,
	// and the rename undo record fills the entry's padding, so the entry
	// stays small.
	if n := unsafe.Sizeof(robEntry{}); n > 216 {
		t.Errorf("robEntry is %d bytes, want at most 216", n)
	}
}

// TestConfigValidate rejects each geometry field that leaves the core unable
// to commit, naming the field, and a width above the ROB size, naming both;
// it accepts the narrowest and widest machines the sensitivity study builds
// and a width equal to the ROB size.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name  string
		cfg   func(c Config) Config
		field string // "" when the config is valid
	}{
		{"width0", func(c Config) Config { c.Width = 0; return c }, "Width"},
		{"rob0", func(c Config) Config { c.ROBEntries = 0; return c }, "ROBEntries"},
		{"fetchq-neg", func(c Config) Config { c.FetchQueue = -1; return c }, "FetchQueue"},
		{"ports0", func(c Config) Config { c.CachePorts = 0; return c }, "CachePorts"},
		{"width1", func(c Config) Config { return c.WithWidth(1) }, ""},
		{"width8", func(c Config) Config { return c.WithWidth(8) }, ""},
		{"width=rob", func(c Config) Config { return c.WithWidth(c.ROBEntries) }, ""},
	}
	for _, tc := range cases {
		err := tc.cfg(DefaultConfig()).Validate()
		switch {
		case tc.field == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.field != "" && (err == nil || !strings.Contains(err.Error(), tc.field+" must be at least 1")):
			t.Errorf("%s: got %v, want an error naming %s", tc.name, err, tc.field)
		}
	}

	// Validate only reads the fields: a width of 10^8 allocates nothing.
	for _, w := range []int{193, 100_000_000} {
		err := DefaultConfig().WithWidth(w).Validate()
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("Width %d exceeds ROBEntries 192", w)) {
			t.Errorf("width %d: got %v, want an error naming Width and ROBEntries", w, err)
		}
	}
}
