package runner

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/store"
)

// storeOpts is tinyOpts plus a fast-forward, so the checkpoint tier is
// exercised alongside the result tier.
func storeOpts() sim.RunOpts {
	o := tinyOpts()
	o.FastForwardInsts = 5_000
	return o
}

func storeJobs() []Job {
	opts := storeOpts()
	return []Job{
		Solo(sim.Default(sim.PFNone), "mcf", opts),
		Solo(sim.Default(sim.PFBFetch), "mcf", opts),
		Solo(sim.Default(sim.PFStride), "libquantum", opts),
		Solo(sim.Default(sim.PFNone), "mcf", opts), // duplicate: memory-tier hit
	}
}

// sameObservable compares the parts of a Result that feed tables and
// reports. The full struct includes unexported DRAM scheduling state that
// deliberately does not survive serialization.
func sameObservable(t *testing.T, tag string, a, b sim.Result) {
	t.Helper()
	if !reflect.DeepEqual(a.IPC, b.IPC) || !reflect.DeepEqual(a.Core, b.Core) ||
		!reflect.DeepEqual(a.L1D, b.L1D) || a.LLC != b.LLC || a.Cycles != b.Cycles ||
		!reflect.DeepEqual(a.Lifecycle, b.Lifecycle) || !reflect.DeepEqual(a.Metrics, b.Metrics) {
		t.Errorf("%s: observable results diverge", tag)
	}
}

// TestStoreTwoTierLookup is the heart of the durable cache: a cold engine
// computes and writes back; a fresh engine over the same directory answers
// every distinct point from disk — zero simulations, zero emulated
// instructions — with observably identical results.
func TestStoreTwoTierLookup(t *testing.T) {
	dir := t.TempDir()
	jobs := storeJobs()

	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := New(4)
	cold.SetStore(st1)
	coldOut := cold.RunAll(jobs)
	cs := cold.Stats()
	if cs.Runs != 3 || cs.StoreMisses != 3 || cs.StoreHits != 0 {
		t.Fatalf("cold stats %+v, want 3 runs / 3 store misses", cs)
	}
	if cs.StoreCkptMisses != 2 || cs.StoreCkptHits != 0 {
		t.Fatalf("cold ckpt-store stats %+v, want 2 misses", cs)
	}
	if m := st1.Metrics(); m.Writes != 5 { // 3 results + 2 checkpoints
		t.Fatalf("cold store wrote %d entries, want 5", m.Writes)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := New(4)
	warm.SetStore(st2)
	warmOut := warm.RunAll(jobs)
	ws := warm.Stats()
	if ws.Runs != 0 || ws.EmuInsts != 0 {
		t.Errorf("warm run computed something: %+v", ws)
	}
	if ws.StoreHits != 3 || ws.StoreMisses != 0 {
		t.Errorf("warm run not 100%% store hits: %+v", ws)
	}
	if ws.CacheHits != 1 { // the duplicate job still lands in the memory tier
		t.Errorf("memory tier lost the duplicate: %+v", ws)
	}

	// Byte-identity of the observable results, against both the cold run
	// and a storeless reference engine.
	ref := New(4).RunAll(jobs)
	for i := range jobs {
		if coldOut[i].Err != nil || warmOut[i].Err != nil || ref[i].Err != nil {
			t.Fatalf("job %d errored: %v / %v / %v", i, coldOut[i].Err, warmOut[i].Err, ref[i].Err)
		}
		sameObservable(t, "warm vs cold", warmOut[i].Result, coldOut[i].Result)
		sameObservable(t, "warm vs storeless", warmOut[i].Result, ref[i].Result)
	}
}

// TestBadConfigEmulatesNothing: a store-backed job whose configuration the
// system cannot be built with fails with the configuration's error before
// any fast-forward is emulated or read from the store.
func TestBadConfigEmulatesNothing(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := New(1)
	e.SetStore(st)
	cfg := sim.Default(sim.PFSMS)
	cfg.SMS.PHTEntries = 1000
	opts := tinyOpts()
	opts.FastForwardInsts = 20_000
	if _, err := e.Run(Solo(cfg, "mcf", opts)); err == nil || !strings.Contains(err.Error(), "sms: PHT") {
		t.Fatalf("got %v, want an error naming the SMS PHT", err)
	}
	if s := e.Stats(); s.EmuInsts != 0 || s.StoreCkptMisses != 0 {
		t.Errorf("bad configuration reached the fast-forward: %d insts emulated, %d store checkpoint misses",
			s.EmuInsts, s.StoreCkptMisses)
	}
}

// TestStoreCheckpointTier pins that a warm store eliminates prefix
// emulation: the second engine restores every checkpoint from disk.
func TestStoreCheckpointTier(t *testing.T) {
	dir := t.TempDir()
	job := Solo(sim.Default(sim.PFNone), "lbm", storeOpts())

	st1, _ := store.Open(dir)
	cold := New(1)
	cold.SetStore(st1)
	if _, err := cold.Run(job); err != nil {
		t.Fatal(err)
	}
	if cs := cold.Stats(); cs.CkptMisses != 1 || cs.EmuInsts == 0 {
		t.Fatalf("cold run did not emulate a checkpoint: %+v", cs)
	}

	st2, _ := store.Open(dir)
	warmEng := New(1)
	warmEng.SetStore(st2)
	// Force a result-tier miss with a config the cold engine never ran, so
	// the simulation must execute — but its checkpoint must come from disk.
	job2 := Solo(sim.Default(sim.PFStride), "lbm", storeOpts())
	if _, err := warmEng.Run(job2); err != nil {
		t.Fatal(err)
	}
	ws := warmEng.Stats()
	if ws.Runs != 1 {
		t.Fatalf("expected a simulation: %+v", ws)
	}
	if ws.StoreCkptHits != 1 || ws.CkptMisses != 0 || ws.EmuInsts != 0 {
		t.Errorf("checkpoint not restored from store: %+v", ws)
	}
}

// TestStoreChainSharesWithPredecessor: a warm engine over a two-point chain
// reads each checkpoint from the store once, counts exactly what an engine
// that restores them independently counts, and rebuilds the longer point
// against the shorter one, so the two share every page the segment between
// them left unchanged — as much as the cold engine's emulated chain.
func TestStoreChainSharesWithPredecessor(t *testing.T) {
	dir := t.TempDir()
	var jobs []Job
	for _, ff := range []uint64{200_000, 400_000} {
		opts := tinyOpts()
		opts.FastForwardInsts = ff
		jobs = append(jobs, Solo(sim.Default(sim.PFNone), "mcf", opts), Solo(sim.Default(sim.PFStride), "mcf", opts))
	}
	shared := func(e *Engine) int {
		e.ckMu.Lock()
		defer e.ckMu.Unlock()
		return mem.SharedBytes(e.ckEntries["mcf|400000"].cp.Image(), e.ckEntries["mcf|200000"].cp.Image())
	}

	st, _ := store.Open(dir)
	cold := New(2)
	cold.SetStore(st)
	coldOut := runBatch(t, cold, jobs)
	if err := os.RemoveAll(filepath.Join(dir, store.KindRun)); err != nil {
		t.Fatal(err)
	}

	st, _ = store.Open(dir)
	warm := New(2)
	warm.SetStore(st)
	warmOut := runBatch(t, warm, jobs)
	ws := warm.Stats()
	if ws.StoreCkptHits != 2 || ws.StoreCkptMisses != 0 || ws.CkptMisses != 0 || ws.CkptHits != 2 || ws.EmuInsts != 0 {
		t.Errorf("warm chain: store ckpt hits %d misses %d, ckpt hits %d misses %d, emulated %d; want 2 0, 2 0, 0",
			ws.StoreCkptHits, ws.StoreCkptMisses, ws.CkptHits, ws.CkptMisses, ws.EmuInsts)
	}
	for i := range jobs {
		sameObservable(t, fmt.Sprintf("job %d warm vs cold", i), coldOut[i].Result, warmOut[i].Result)
	}
	got, want := shared(warm), shared(cold)
	if got != want || got == 0 {
		t.Errorf("store-read chain shares %d bytes between its points, the emulated chain %d", got, want)
	}
	base, ok := st.GetCheckpoint("mcf", 200_000, nil)
	long, ok2 := st.GetCheckpoint("mcf", 400_000, nil)
	if !ok || !ok2 {
		t.Fatal("a chain point is missing from the store")
	}
	if n := mem.SharedBytes(long.Image(), base.Image()); n >= got {
		t.Errorf("points read without a base share %d bytes, with one %d", n, got)
	}
}

// TestStoreWorkerCountInvariant shares one store directory between a
// sequential and a wide engine: both must see the same hits and produce the
// same bytes — the disk tier must be as scheduling-independent as the
// memory tier.
func TestStoreWorkerCountInvariant(t *testing.T) {
	dir := t.TempDir()
	jobs := storeJobs()

	st1, _ := store.Open(dir)
	e1 := New(1)
	e1.SetStore(st1)
	out1 := e1.RunAll(jobs)

	st8, _ := store.Open(dir)
	e8 := New(8)
	e8.SetStore(st8)
	out8 := e8.RunAll(jobs)

	if s := e8.Stats(); s.Runs != 0 || s.StoreMisses != 0 {
		t.Errorf("-j 8 over a warm shared store recomputed: %+v", s)
	}
	for i := range jobs {
		sameObservable(t, "j1 vs j8", out1[i].Result, out8[i].Result)
	}
}

// TestStoreWriteErrorsCounted: a write-back that fails (here a file sits
// where the result directory belongs) must not fail the job, and must show
// in the batch record instead of vanishing.
func TestStoreWriteErrorsCounted(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, store.KindRun), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := New(1)
	e.SetStore(st)
	if _, err := e.Run(Solo(sim.Default(sim.PFNone), "gamess", tinyOpts())); err != nil {
		t.Fatalf("job failed on a store write error: %v", err)
	}
	if s := e.Stats(); s.Runs != 1 || s.StoreWriteErrs < 1 {
		t.Errorf("stats %+v, want 1 run and ≥ 1 store write error", s)
	}
}
