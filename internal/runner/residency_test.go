package runner

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/store"
)

// resident counts the checkpoints the engine holds in memory.
func resident(e *Engine) int {
	e.ckMu.Lock()
	defer e.ckMu.Unlock()
	return len(e.ckEntries)
}

// residencyBatches are two batches over the same two checkpoints (mcf and
// libquantum at one fast-forward length) whose configs differ, so the
// second batch misses the result memo and must boot from a checkpoint.
func residencyBatches() (first, second []Job) {
	opts := storeOpts()
	first = []Job{
		Solo(sim.Default(sim.PFNone), "mcf", opts),
		Solo(sim.Default(sim.PFStride), "mcf", opts),
		Solo(sim.Default(sim.PFNone), "libquantum", opts),
	}
	second = []Job{
		Solo(sim.Default(sim.PFBFetch), "mcf", opts),
		Solo(sim.Default(sim.PFSMS), "libquantum", opts),
	}
	return first, second
}

func runBatch(t *testing.T, e *Engine, jobs []Job) []Outcome {
	t.Helper()
	outs := e.RunAll(jobs)
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("job %d: %v", i, o.Err)
		}
	}
	return outs
}

// warmCheckpointStore returns a store holding the mcf and libquantum
// checkpoints at storeOpts' fast-forward length, and no run results.
func warmCheckpointStore(t *testing.T) *store.Store {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := New(2)
	e.SetStore(st)
	first, _ := residencyBatches()
	runBatch(t, e, first)
	if err := os.RemoveAll(filepath.Join(dir, store.KindRun)); err != nil {
		t.Fatal(err)
	}
	st, err = store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRestoredCheckpointResidency: a checkpoint read from the store stays
// in memory for the engine's lifetime, like an emulated one, so it is read
// from disk once however many batches and jobs need it. Results equal a
// storeless engine's.
func TestRestoredCheckpointResidency(t *testing.T) {
	first, second := residencyBatches()
	// Eight configs sharing the mcf checkpoint, one batch, one worker.
	var eight []Job
	for _, kind := range []sim.PrefetcherKind{sim.PFNone, sim.PFStride, sim.PFSMS, sim.PFBFetch} {
		eight = append(eight, Solo(sim.Default(kind), "mcf", storeOpts()))
		wide := sim.Default(kind)
		wide.CPU = wide.CPU.WithWidth(2)
		eight = append(eight, Solo(wide, "mcf", storeOpts()))
	}
	for _, tc := range []struct {
		name     string
		workers  int
		batches  [][]Job
		resident int
	}{
		{"two batches", 2, [][]Job{first, second}, 2},
		{"eight configs", 1, [][]Job{eight}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(tc.workers)
			e.SetStore(warmCheckpointStore(t))
			var jobs []Job
			var outs []Outcome
			for _, b := range tc.batches {
				jobs = append(jobs, b...)
				outs = append(outs, runBatch(t, e, b)...)
			}
			if n := resident(e); n != tc.resident {
				t.Errorf("%d checkpoints resident, want %d", n, tc.resident)
			}
			s := e.Stats()
			if want := uint64(len(jobs) - tc.resident); s.CkptMisses != 0 ||
				s.StoreCkptHits != uint64(tc.resident) || s.CkptHits != want {
				t.Errorf("ckpt misses %d, store ckpt hits %d, ckpt hits %d; want 0, %d (one read each), %d",
					s.CkptMisses, s.StoreCkptHits, s.CkptHits, tc.resident, want)
			}
			ref := New(2).RunAll(jobs)
			for i := range ref {
				if ref[i].Err != nil || !reflect.DeepEqual(ref[i].Result, outs[i].Result) {
					t.Errorf("job %d: result differs from a storeless engine's (ref err %v)", i, ref[i].Err)
				}
			}
		})
	}
}

// TestEmulatedCheckpointsStayResident: an emulated checkpoint stays in
// memory whether or not a store is attached and whether or not its
// write-back succeeds (a file where the ckpt directory belongs makes it
// fail), so a later batch hits it there.
func TestEmulatedCheckpointsStayResident(t *testing.T) {
	for _, tc := range []struct {
		name      string
		store     bool
		failWrite bool
	}{{"no store", false, false}, {"store", true, false}, {"failed write-back", true, true}} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(2)
			if tc.store {
				dir := t.TempDir()
				if tc.failWrite {
					if err := os.WriteFile(filepath.Join(dir, store.KindCkpt), nil, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				st, err := store.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				e.SetStore(st)
			}
			first, second := residencyBatches()
			runBatch(t, e, first)
			if n := resident(e); n != 2 {
				t.Errorf("%d checkpoints resident, want 2", n)
			}
			runBatch(t, e, second)
			s := e.Stats()
			if s.CkptMisses != 2 || s.CkptHits != 3 || s.StoreCkptHits != 0 {
				t.Errorf("ckpt misses %d, hits %d, store ckpt hits %d; want 2, 3, 0",
					s.CkptMisses, s.CkptHits, s.StoreCkptHits)
			}
			if tc.failWrite && s.StoreWriteErrs < 2 {
				t.Errorf("store write errors %d, want ≥ 2", s.StoreWriteErrs)
			}
		})
	}
}
