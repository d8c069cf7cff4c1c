package sim

import (
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/workload"
)

var quickOpts = RunOpts{WarmupInsts: 30_000, MeasureInsts: 80_000}

func mustRun(t *testing.T, pf PrefetcherKind, app string) Result {
	t.Helper()
	res, err := RunSolo(Default(pf), app, quickOpts)
	if err != nil {
		t.Fatalf("%s/%s: %v", pf, app, err)
	}
	return res
}

func TestBaselineRunsAndMeasures(t *testing.T) {
	res := mustRun(t, PFNone, "libquantum")
	if res.IPC[0] <= 0 {
		t.Fatalf("IPC = %v", res.IPC[0])
	}
	if res.Core[0].Committed < quickOpts.MeasureInsts {
		t.Errorf("committed %d < budget", res.Core[0].Committed)
	}
	if res.L1D[0].Misses == 0 {
		t.Error("streaming workload produced no L1D misses")
	}
	if res.DRAM.DemandFills == 0 {
		t.Error("no DRAM traffic")
	}
}

func TestPerfectBeatsBaselineOnStream(t *testing.T) {
	base := mustRun(t, PFNone, "libquantum")
	perfect := mustRun(t, PFPerfect, "libquantum")
	if perfect.IPC[0] <= base.IPC[0]*1.2 {
		t.Errorf("perfect IPC %.3f not ≫ baseline %.3f", perfect.IPC[0], base.IPC[0])
	}
}

func TestStrideHelpsStream(t *testing.T) {
	base := mustRun(t, PFNone, "libquantum")
	stride := mustRun(t, PFStride, "libquantum")
	if stride.IPC[0] <= base.IPC[0]*1.05 {
		t.Errorf("stride IPC %.3f not > baseline %.3f", stride.IPC[0], base.IPC[0])
	}
	if stride.L1D[0].PrefetchFills == 0 {
		t.Error("stride issued no prefetches")
	}
	if stride.L1D[0].PrefetchUseful == 0 {
		t.Error("no useful prefetches recorded")
	}
}

func TestSMSHelpsRegionWorkload(t *testing.T) {
	base := mustRun(t, PFNone, "milc")
	smsRes := mustRun(t, PFSMS, "milc")
	if smsRes.IPC[0] <= base.IPC[0]*1.05 {
		t.Errorf("SMS IPC %.3f not > baseline %.3f on milc", smsRes.IPC[0], base.IPC[0])
	}
}

func TestBFetchHelpsAndIsAccurate(t *testing.T) {
	base := mustRun(t, PFNone, "libquantum")
	bf := mustRun(t, PFBFetch, "libquantum")
	if bf.IPC[0] <= base.IPC[0]*1.05 {
		t.Errorf("B-Fetch IPC %.3f not > baseline %.3f", bf.IPC[0], base.IPC[0])
	}
	if bf.L1D[0].PrefetchFills == 0 {
		t.Fatal("B-Fetch issued no prefetches")
	}
	useful := bf.L1D[0].PrefetchUseful
	useless := bf.L1D[0].PrefetchUseless
	if useful == 0 {
		t.Error("no useful B-Fetch prefetches")
	}
	t.Logf("bfetch on libquantum: issued=%d useful=%d useless=%d ipc %.3f vs %.3f",
		bf.L1D[0].PrefetchFills, useful, useless, bf.IPC[0], base.IPC[0])
}

func TestAccountingIdentities(t *testing.T) {
	res := mustRun(t, PFBFetch, "lbm")
	l1 := res.L1D[0]
	if l1.Hits+l1.Misses != l1.Accesses {
		t.Errorf("hits %d + misses %d != accesses %d", l1.Hits, l1.Misses, l1.Accesses)
	}
	// Every useful or useless prefetch was filled in this window or
	// carried into it untouched across the warmup reset.
	if l1.PrefetchUseful+l1.PrefetchUseless > l1.PrefetchFills+l1.PrefetchCarried {
		t.Errorf("prefetch accounting out of balance: %+v", l1)
	}
}

func TestCMPSharedLLCContention(t *testing.T) {
	cfg := Default(PFNone)
	solo, err := RunSolo(cfg, "mcf", quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	duo, err := Run(cfg, []string{"mcf", "lbm"}, quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(duo.IPC) != 2 {
		t.Fatalf("IPC count = %d", len(duo.IPC))
	}
	// Weighted speedup must be computable and below the ideal 2.0 under
	// contention (the LLC is shared but larger; allow mild superlinearity
	// headroom only).
	soloLBM, err := RunSolo(cfg, "lbm", quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	ws := stats.WeightedSpeedup(duo.IPC, []float64{solo.IPC[0], soloLBM.IPC[0]})
	if ws <= 0.5 || ws > 2.2 {
		t.Errorf("weighted speedup = %.3f, outside sane range", ws)
	}
	t.Logf("mcf+lbm weighted speedup %.3f", ws)
}

func TestMismatchedCoresRejected(t *testing.T) {
	cfg := Default(PFNone)
	cfg.Cores = 2
	w, _ := workload.ByName("mcf")
	if _, err := New(cfg, []workload.Workload{w}); err == nil {
		t.Error("core/app mismatch accepted")
	}
}

func TestUnknownPrefetcherRejected(t *testing.T) {
	cfg := Default("bogus")
	if _, err := RunSolo(cfg, "mcf", quickOpts); err == nil {
		t.Error("unknown prefetcher accepted")
	}
}

func TestUnknownWorkloadRejected(t *testing.T) {
	if _, err := RunSolo(Default(PFNone), "nonesuch", quickOpts); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestWarmupResetsCounters(t *testing.T) {
	res := mustRun(t, PFNone, "gamess")
	// Measured committed must be ≈ MeasureInsts, not Warmup+Measure.
	if res.Core[0].Committed > quickOpts.MeasureInsts+100 {
		t.Errorf("committed %d includes warmup", res.Core[0].Committed)
	}
}

// TestLifecycleSamplesMatchResult reads the c%d.l1d.* collectors out of a
// 2-core B-Fetch run with warmup. Result.Lifecycle must follow from them:
// issued is pf_fills+pf_carried, timely pf_useful-pf_late, late pf_late,
// useless pf_useless, polluting polluting, demand misses misses-pf_fills.
// The window must keep useful+useless <= issued, and on at least one core
// the carry-in at the warmup boundary must show: issued exceeds
// c%d.l1d.pf_fills, which counts only the window's own fills.
func TestLifecycleSamplesMatchResult(t *testing.T) {
	cfg := Default(PFBFetch)
	cfg.Cores = 2
	res, err := Run(cfg, []string{"libquantum", "lbm"}, quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	carried := false
	for i, lc := range res.Lifecycle {
		get := func(name string) uint64 {
			t.Helper()
			v, ok := res.Metrics.Get(fmt.Sprintf("c%d.l1d.%s", i, name))
			if !ok {
				t.Fatalf("core %d: no sample l1d.%s", i, name)
			}
			return v
		}
		fills, useful, late := get("pf_fills"), get("pf_useful"), get("pf_late")
		want := obs.LifecycleStats{
			Issued:         fills + get("pf_carried"),
			UsefulTimely:   useful - late,
			UsefulLate:     late,
			UselessEvicted: get("pf_useless"),
			Polluting:      get("polluting"),
			DemandMisses:   get("misses") - fills,
		}
		if lc != want {
			t.Errorf("core %d: Result.Lifecycle = %+v, the l1d samples give %+v", i, lc, want)
		}
		if lc.Useful()+lc.UselessEvicted > lc.Issued {
			t.Errorf("core %d: useful %d + useless %d > issued %d", i, lc.Useful(), lc.UselessEvicted, lc.Issued)
		}
		if lc.Issued > fills {
			carried = true
		}
	}
	if !carried {
		t.Error("no core carried prefetches across the warmup boundary: issued never exceeds pf_fills")
	}
}
