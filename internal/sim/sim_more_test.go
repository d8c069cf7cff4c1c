package sim

import (
	"strings"
	"testing"

	"repro/internal/branch"
	"repro/internal/prefetch"
	"repro/internal/workload"
)

// Additional system-level tests: alternative prefetchers through the full
// stack, custom factories, and run-loop edge cases.

func TestISBAndSTeMSRunThroughSystem(t *testing.T) {
	for _, kind := range []PrefetcherKind{PFISB, PFSTeMS, PFNextN} {
		res, err := RunSolo(Default(kind), "gromacs", quickOpts)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if res.IPC[0] <= 0 {
			t.Errorf("%s: IPC %v", kind, res.IPC[0])
		}
	}
}

func TestCustomFactoryPerCore(t *testing.T) {
	calls := 0
	cfg := Default(PFCustom)
	cfg.Factory = func(_ *branch.Predictor, _ *branch.Confidence) prefetch.Prefetcher {
		calls++
		return prefetch.None{}
	}
	_, err := Run(cfg, []string{"gamess", "sjeng"}, RunOpts{WarmupInsts: 1000, MeasureInsts: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("factory called %d times, want once per core", calls)
	}
}

func TestCMPFreezesFinishedCores(t *testing.T) {
	// gamess (fast) + mcf (slow): gamess reaches its budget first and must
	// freeze; total committed stays within budget + commit width.
	cfg := Default(PFNone)
	res, err := Run(cfg, []string{"gamess", "mcf"}, RunOpts{WarmupInsts: 5_000, MeasureInsts: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	for i, cs := range res.Core {
		if cs.Committed < 30_000 || cs.Committed > 30_000+8 {
			t.Errorf("core %d committed %d", i, cs.Committed)
		}
	}
	// The fast core's private cycle count must be well below the slow one's.
	if res.Core[0].Cycles >= res.Core[1].Cycles {
		t.Errorf("gamess cycles %d !< mcf cycles %d", res.Core[0].Cycles, res.Core[1].Cycles)
	}
}

func TestRunCycleBoundErrors(t *testing.T) {
	cfg := Default(PFNone)
	_, err := RunSolo(cfg, "mcf", RunOpts{MeasureInsts: 100_000, CyclesPerInst: 1})
	if err == nil {
		t.Error("impossible cycle bound did not error")
	}
}

// TestCoreGeometryRejectedAtAssembly: a core that can never commit fails
// when the system is assembled, naming the field, instead of spinning to
// the cycle bound.
func TestCoreGeometryRejectedAtAssembly(t *testing.T) {
	cfg := Default(PFNone)
	cfg.CPU.Width = 0
	_, err := RunSolo(cfg, "gamess", quickOpts)
	if err == nil || !strings.Contains(err.Error(), "Width must be at least 1") {
		t.Fatalf("got %v, want an error naming Width", err)
	}
}

func TestWorkloadImagesAreIsolated(t *testing.T) {
	// Two systems over the same workload must not share memory images.
	w, err := workload.ByName("bzip2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default(PFNone)
	s1, err := New(cfg, []workload.Workload{w})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(cfg, []workload.Workload{w})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Run(20_000, 100_000_000); err != nil {
		t.Fatal(err)
	}
	// s2 still at cycle zero; running it must reproduce s1 exactly
	// (deterministic builds, no cross-talk).
	if err := s2.Run(20_000, 100_000_000); err != nil {
		t.Fatal(err)
	}
	if s1.Cores[0].Stats.Cycles != s2.Cores[0].Stats.Cycles {
		t.Errorf("same workload, different cycle counts: %d vs %d",
			s1.Cores[0].Stats.Cycles, s2.Cores[0].Stats.Cycles)
	}
}
