package cpu

import (
	"math/rand"
	"testing"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/prefetch"
)

func newTestCore(prog *isa.Program, m *mem.Memory, pf prefetch.Prefetcher) *Core {
	return newTestCoreCfg(DefaultConfig(), prog, m, pf)
}

func newTestCoreCfg(cfg Config, prog *isa.Program, m *mem.Memory, pf prefetch.Prefetcher) *Core {
	if pf == nil {
		pf = prefetch.None{}
	}
	dram := cache.NewDRAM()
	llc := cache.New(cache.Config{Name: "L3", Bytes: 2 << 20, Ways: 16, Latency: 20}, dram)
	hier := cache.NewHierarchy(cache.DefaultHierarchyConfig(), llc, 0)
	bp := branch.New(branch.DefaultConfig())
	conf := branch.NewConfidence(branch.DefaultConfidenceConfig())
	return New(cfg, prog, m, hier, bp, conf, pf)
}

// runBoth executes the program on the functional emulator and the OoO core
// and checks that their architectural outcomes agree.
func runBoth(t *testing.T, prog *isa.Program, image *mem.Memory, maxInsts uint64) (*Core, *emu.CPU) {
	t.Helper()
	return runBothCfg(t, DefaultConfig(), prog, image, maxInsts)
}

// runBothCfg is runBoth on a core built with cfg.
func runBothCfg(t *testing.T, cfg Config, prog *isa.Program, image *mem.Memory, maxInsts uint64) (*Core, *emu.CPU) {
	t.Helper()
	memA := image.Clone()
	memB := image.Clone()

	ref := emu.New(prog, memA)
	if _, err := ref.Run(maxInsts); err != nil {
		t.Fatalf("emulator: %v", err)
	}
	if !ref.Halted {
		t.Fatalf("reference did not halt within %d instructions", maxInsts)
	}

	core := newTestCoreCfg(cfg, prog, memB, nil)
	if _, err := core.Run(maxInsts+10, 100*maxInsts+10000); err != nil {
		t.Fatalf("core: %v", err)
	}
	if !core.Halted() {
		t.Fatalf("core did not halt (committed %d, cycles %d)",
			core.Stats.Committed, core.Stats.Cycles)
	}

	if core.Stats.Committed != ref.Retired {
		t.Errorf("committed %d instructions, emulator retired %d",
			core.Stats.Committed, ref.Retired)
	}
	cregs := core.Regs()
	for r := 0; r < isa.NumRegs; r++ {
		if cregs[r] != ref.Regs[r] {
			t.Errorf("r%d = %d, emulator has %d", r, cregs[r], ref.Regs[r])
		}
	}
	if !mem.Equal(memA, memB) {
		t.Error("memory images diverged")
	}
	return core, ref
}

func TestSimpleArithmeticProgram(t *testing.T) {
	prog := isa.MustAssemble(`
		movi r1, 6
		movi r2, 7
		mul  r3, r1, r2
		add  r4, r3, r3
		sub  r5, r4, r1
		halt
	`)
	runBoth(t, prog, mem.New(), 100)
}

func TestLoopProgram(t *testing.T) {
	prog := isa.MustAssemble(`
		movi r1, 100
		movi r2, 0
	loop:
		add  r2, r2, r1
		addi r1, r1, -1
		bnez r1, loop
		halt
	`)
	core, _ := runBoth(t, prog, mem.New(), 10000)
	if core.Regs()[2] != 5050 {
		t.Errorf("sum = %d", core.Regs()[2])
	}
}

func TestMemoryLoopProgram(t *testing.T) {
	image := mem.New()
	for i := 0; i < 64; i++ {
		image.WriteInt64(uint64(0x10000+8*i), int64(i*3))
	}
	prog := isa.MustAssemble(`
		movi r1, 0x10000
		movi r2, 64
		movi r3, 0
	loop:
		ld   r4, 0(r1)
		add  r3, r3, r4
		st   r3, 2048(r1)     ; running prefix sums
		addi r1, r1, 8
		addi r2, r2, -1
		bnez r2, loop
		halt
	`)
	core, _ := runBoth(t, prog, image, 10000)
	if want := int64(63 * 64 / 2 * 3); core.Regs()[3] != want {
		t.Errorf("sum = %d, want %d", core.Regs()[3], want)
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	// The load reads an address stored one instruction earlier, forcing
	// either a forward or a stall; the result must be architecturally right.
	prog := isa.MustAssemble(`
		movi r1, 0x20000
		movi r2, 42
		st   r2, 0(r1)
		ld   r3, 0(r1)
		addi r3, r3, 1
		st   r3, 8(r1)
		ld   r4, 8(r1)
		halt
	`)
	core, _ := runBoth(t, prog, mem.New(), 100)
	if core.Regs()[4] != 43 {
		t.Errorf("r4 = %d", core.Regs()[4])
	}
	if core.Stats.StoreForwards == 0 {
		t.Log("no forwards recorded (loads may have waited out the stores); architecture still correct")
	}
}

func TestPartialOverlapStall(t *testing.T) {
	// An 8-byte store at X overlaps a load at X+4 (misaligned on purpose):
	// the load must stall until the store drains, then read combined bytes.
	prog := isa.MustAssemble(`
		movi r1, 0x30000
		movi r2, -1
		st   r2, 0(r1)
		ld   r3, 4(r1)
		halt
	`)
	runBoth(t, prog, mem.New(), 100)
}

func TestBranchDiamonds(t *testing.T) {
	prog := isa.MustAssemble(`
		movi r1, 50
		movi r2, 0
		movi r3, 0
	loop:
		andi r4, r1, 1
		beqz r4, even
		addi r2, r2, 1     ; odd arm
		jmp  join
	even:
		addi r3, r3, 1
	join:
		addi r1, r1, -1
		bnez r1, loop
		halt
	`)
	core, _ := runBoth(t, prog, mem.New(), 10000)
	if core.Regs()[2] != 25 || core.Regs()[3] != 25 {
		t.Errorf("arms = %d/%d", core.Regs()[2], core.Regs()[3])
	}
	if core.Stats.BranchesCommitted == 0 {
		t.Error("no branches committed")
	}
}

func TestIndirectJumpProgram(t *testing.T) {
	// A jump table: jr alternates between two handlers.
	base := int64(isa.DefaultTextBase)
	b := isa.NewBuilder()
	loop := b.NewLabel()
	h1 := b.NewLabel()
	h2 := b.NewLabel()
	join := b.NewLabel()
	b.Movi(isa.R(1), 40) // iterations
	b.Movi(isa.R(2), 0)  // acc
	b.Bind(loop)         // 2
	b.Andi(isa.R(3), isa.R(1), 1)
	b.Beqz(isa.R(3), h2) // even → handler 2 via branch for variety
	b.Movi(isa.R(4), 0)  // will hold target
	b.Bind(h1)           // filled below: compute jr target to 'join'
	// Build target address of join into r4 and jump indirectly.
	// join's index is patched after assembly via the label; we use a
	// placeholder movi fixed up manually below.
	b.Jr(isa.R(4))
	b.Bind(h2)
	b.Addi(isa.R(2), isa.R(2), 10)
	b.Bind(join)
	b.Addi(isa.R(1), isa.R(1), -1)
	b.Bnez(isa.R(1), loop)
	b.Halt()
	prog := b.MustProgram()
	// Patch the movi (index 4) with join's byte address: the addi r1,r1,-1
	// preceding the final bnez.
	ji := len(prog.Insts) - 3
	prog.Insts[4].Imm = base + int64(4*ji)
	runBoth(t, prog, mem.New(), 10000)
}

func TestMispredictRecoveryCorrectness(t *testing.T) {
	// A data-dependent unpredictable branch pattern (xorshift) stresses
	// squash/recovery; correctness must hold regardless of prediction.
	prog := isa.MustAssemble(`
		movi r1, 12345
		movi r2, 200      ; iterations
		movi r3, 0
	loop:
		; xorshift step
		slli r4, r1, 13
		xor  r1, r1, r4
		srli r4, r1, 7
		xor  r1, r1, r4
		slli r4, r1, 17
		xor  r1, r1, r4
		andi r5, r1, 1
		beqz r5, skip
		addi r3, r3, 1
	skip:
		addi r2, r2, -1
		bnez r2, loop
		halt
	`)
	core, _ := runBoth(t, prog, mem.New(), 100000)
	if core.Stats.BranchMispredicts == 0 {
		t.Error("xorshift branch never mispredicted — suspicious")
	}
	if core.Stats.Squashed == 0 {
		t.Error("no squashes despite mispredicts")
	}
}

func TestZeroRegInPipeline(t *testing.T) {
	prog := isa.MustAssemble(`
		movi r31, 77
		add  r1, r31, r31
		movi r2, 5
		add  r3, r2, r31
		halt
	`)
	core, _ := runBoth(t, prog, mem.New(), 100)
	if core.Regs()[31] != 0 || core.Regs()[1] != 0 || core.Regs()[3] != 5 {
		t.Errorf("regs: r31=%d r1=%d r3=%d", core.Regs()[31], core.Regs()[1], core.Regs()[3])
	}
}

func TestFaultOnBadJR(t *testing.T) {
	prog := isa.MustAssemble(`
		movi r1, 12      ; not a text address
		jr   r1
		halt
	`)
	core := newTestCore(prog, mem.New(), nil)
	_, err := core.Run(1000, 100000)
	if err == nil {
		t.Fatal("bad jr did not fault")
	}
}

func TestIPCSanity(t *testing.T) {
	// A long independent ALU chain should sustain IPC well above 1 on a
	// 4-wide machine, and a serial dependency chain should be near 1.
	b := isa.NewBuilder()
	for i := 0; i < 2000; i++ {
		b.Addi(isa.R(1+i%8), isa.RZero, int64(i))
	}
	b.Halt()
	core := newTestCore(b.MustProgram(), mem.New(), nil)
	if _, err := core.Run(1<<20, 1<<20); err != nil {
		t.Fatal(err)
	}
	if ipc := core.Stats.IPC(); ipc < 2.0 {
		t.Errorf("independent-chain IPC = %.2f, want > 2", ipc)
	}

	b2 := isa.NewBuilder()
	for i := 0; i < 2000; i++ {
		b2.Addi(isa.R(1), isa.R(1), 1)
	}
	b2.Halt()
	core2 := newTestCore(b2.MustProgram(), mem.New(), nil)
	if _, err := core2.Run(1<<20, 1<<20); err != nil {
		t.Fatal(err)
	}
	if ipc := core2.Stats.IPC(); ipc > 1.1 {
		t.Errorf("serial-chain IPC = %.2f, want ≈1", ipc)
	}
}

func TestWidthScaling(t *testing.T) {
	build := func() *isa.Program {
		b := isa.NewBuilder()
		for i := 0; i < 3000; i++ {
			b.Addi(isa.R(1+i%12), isa.RZero, int64(i))
		}
		b.Halt()
		return b.MustProgram()
	}
	ipc := map[int]float64{}
	for _, w := range []int{2, 4, 8} {
		dram := cache.NewDRAM()
		llc := cache.New(cache.Config{Name: "L3", Bytes: 2 << 20, Ways: 16, Latency: 20}, dram)
		hier := cache.NewHierarchy(cache.DefaultHierarchyConfig(), llc, 0)
		core := New(DefaultConfig().WithWidth(w), build(), mem.New(), hier,
			branch.New(branch.DefaultConfig()), branch.NewConfidence(branch.DefaultConfidenceConfig()),
			prefetch.None{})
		if _, err := core.Run(1<<20, 1<<20); err != nil {
			t.Fatal(err)
		}
		ipc[w] = core.Stats.IPC()
	}
	if !(ipc[2] < ipc[4] && ipc[4] < ipc[8]) {
		t.Errorf("IPC not monotonic in width: %v", ipc)
	}
}

func TestPrefetcherHooksFire(t *testing.T) {
	rec := &hookRecorder{}
	image := mem.New()
	prog := isa.MustAssemble(`
		movi r1, 0x40000
		movi r2, 32
	loop:
		ld   r3, 0(r1)
		addi r1, r1, 64
		addi r2, r2, -1
		bnez r2, loop
		halt
	`)
	core := newTestCore(prog, image, rec)
	if _, err := core.Run(10000, 100000); err != nil {
		t.Fatal(err)
	}
	if rec.decodes == 0 {
		t.Error("no decode hooks")
	}
	if rec.commits == 0 {
		t.Error("no commit hooks")
	}
	if rec.accesses == 0 {
		t.Error("no access hooks")
	}
	if rec.ticks == 0 {
		t.Error("no tick hooks")
	}
	if rec.execs == 0 {
		t.Error("no exec-observer samples")
	}
}

type hookRecorder struct {
	prefetch.Base
	decodes, commits, accesses, ticks, execs int
}

func (h *hookRecorder) Name() string                 { return "recorder" }
func (h *hookRecorder) OnDecode(prefetch.DecodeInfo) { h.decodes++ }
func (h *hookRecorder) OnCommit(prefetch.CommitInfo) { h.commits++ }
func (h *hookRecorder) OnAccess(prefetch.AccessInfo) { h.accesses++ }
func (h *hookRecorder) AppendTick(dst []prefetch.Request, _ uint64) []prefetch.Request {
	h.ticks++
	return dst
}
func (h *hookRecorder) OnExec(isa.Reg, int64, uint64, uint64) { h.execs++ }

// --- Randomized differential testing -----------------------------------

// randomProgram builds a random but guaranteed-terminating program: nested
// counted loops whose bodies mix ALU ops, masked loads/stores into a scratch
// region, and data-dependent branches.
func randomProgram(rng *rand.Rand) (*isa.Program, *mem.Memory) {
	b := isa.NewBuilder()
	image := mem.New()
	const scratch = 0x100000
	for i := 0; i < 512; i++ {
		image.WriteInt64(scratch+8*uint64(i), rng.Int63n(1<<30))
	}

	// r16 = scratch base; r1..r8 data regs; r9 temp addr; r10-12 counters.
	b.Movi(isa.R(16), scratch)
	for r := 1; r <= 8; r++ {
		b.Movi(isa.R(r), rng.Int63n(1000)-500)
	}

	emitBody := func(depth int) {
		n := 3 + rng.Intn(10)
		for i := 0; i < n; i++ {
			rd := isa.R(1 + rng.Intn(8))
			ra := isa.R(1 + rng.Intn(8))
			rb := isa.R(1 + rng.Intn(8))
			switch rng.Intn(8) {
			case 0:
				b.Add(rd, ra, rb)
			case 1:
				b.Sub(rd, ra, rb)
			case 2:
				b.Xor(rd, ra, rb)
			case 3:
				b.Addi(rd, ra, rng.Int63n(64)-32)
			case 4:
				b.Mul(rd, ra, rb)
			case 5: // masked load
				b.Andi(isa.R(9), ra, 0xFF8)
				b.Add(isa.R(9), isa.R(9), isa.R(16))
				b.Ld(rd, isa.R(9), 0)
			case 6: // masked store
				b.Andi(isa.R(9), ra, 0xFF8)
				b.Add(isa.R(9), isa.R(9), isa.R(16))
				b.St(rb, isa.R(9), 0)
			case 7: // short data-dependent diamond
				skip := b.NewLabel()
				b.Andi(isa.R(9), ra, 1)
				b.Beqz(isa.R(9), skip)
				b.Addi(rd, rd, 3)
				b.Bind(skip)
			}
		}
		_ = depth
	}

	// Two sequential counted loops, the second nested.
	cnt := isa.R(10)
	b.Movi(cnt, int64(4+rng.Intn(12)))
	l1 := b.Here()
	emitBody(0)
	b.Addi(cnt, cnt, -1)
	b.Bnez(cnt, l1)

	outer, inner := isa.R(11), isa.R(12)
	b.Movi(outer, int64(3+rng.Intn(6)))
	l2 := b.Here()
	b.Movi(inner, int64(3+rng.Intn(6)))
	l3 := b.Here()
	emitBody(1)
	b.Addi(inner, inner, -1)
	b.Bnez(inner, l3)
	b.Addi(outer, outer, -1)
	b.Bnez(outer, l2)

	b.Halt()
	return b.MustProgram(), image
}

func TestRandomDifferential(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			prog, image := randomProgram(rng)
			runBoth(t, prog, image, 2_000_000)
		})
	}
}

// FuzzCoreMatchesEmu runs the random differential on fuzzed core
// configurations. Each knob is folded into its legal range, values already
// in range kept as given: ROB 8–256 entries (sizes that are not powers of
// two exercise the ring arithmetic of the ROB, the store queue and the
// per-slot arrays), width 1–8, fetch queue 1–64, cache ports 1–4,
// front-end delay 0–8 and multiply latency 1–8 cycles. Committed
// registers, memory and the retired count must equal the emulator's.
func FuzzCoreMatchesEmu(f *testing.F) {
	f.Add(int64(1), uint16(8), uint8(1), uint8(1), uint8(1), uint8(0), uint8(1))
	f.Add(int64(2), uint16(13), uint8(8), uint8(4), uint8(4), uint8(3), uint8(3))
	f.Add(int64(3), uint16(192), uint8(4), uint8(16), uint8(2), uint8(3), uint8(3))
	f.Add(int64(4), uint16(192), uint8(8), uint8(32), uint8(4), uint8(0), uint8(8))
	f.Add(int64(5), uint16(13), uint8(1), uint8(2), uint8(1), uint8(8), uint8(1))
	f.Add(int64(6), uint16(8), uint8(8), uint8(64), uint8(2), uint8(1), uint8(5))
	f.Add(int64(7), uint16(256), uint8(3), uint8(7), uint8(3), uint8(2), uint8(2))
	f.Add(int64(8), uint16(100), uint8(2), uint8(5), uint8(1), uint8(5), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, rob uint16, width, fq, ports, fed, mul uint8) {
		cfg := DefaultConfig()
		cfg.ROBEntries = foldRange(int(rob), 8, 256)
		cfg.Width = foldRange(int(width), 1, 8)
		cfg.FetchQueue = foldRange(int(fq), 1, 64)
		cfg.CachePorts = foldRange(int(ports), 1, 4)
		cfg.FrontEndDelay = uint64(foldRange(int(fed), 0, 8))
		cfg.MulLatency = uint64(foldRange(int(mul), 1, 8))
		prog, image := randomProgram(rand.New(rand.NewSource(seed)))
		runBothCfg(t, cfg, prog, image, 2_000_000)
	})
}

// foldRange maps v into [lo, hi], leaving values already inside unchanged.
func foldRange(v, lo, hi int) int {
	n := hi - lo + 1
	return lo + ((v-lo)%n+n)%n
}
