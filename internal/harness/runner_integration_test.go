package harness

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
)

// These tests pin the tentpole guarantees of the parallel engine: parallel
// and sequential execution render byte-identical tables, and repeated
// points across experiments come from the cache.

func render(tables []*stats.Table) string {
	var sb strings.Builder
	for _, t := range tables {
		sb.WriteString(t.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

func runWith(t *testing.T, id string, eng *runner.Engine, log *bytes.Buffer) string {
	t.Helper()
	p := Params{
		Opts:      sim.RunOpts{WarmupInsts: 5_000, MeasureInsts: 10_000},
		Workloads: []string{"libquantum", "gamess", "mcf"},
		Mixes:     2,
		Runner:    eng,
		Baselines: NewBaselineStore(),
	}
	if log != nil {
		p.Log = log
	}
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := e.Run(p)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return render(tables)
}

func TestParallelTablesMatchSequential(t *testing.T) {
	for _, id := range []string{"fig8", "fig9", "fig11", "fig13", "fig14", "fig3", "fig7"} {
		var seqLog, parLog bytes.Buffer
		seq := runWith(t, id, runner.New(1), &seqLog)
		par := runWith(t, id, runner.New(8), &parLog)
		if seq != par {
			t.Errorf("%s: parallel tables differ from sequential\n--- seq ---\n%s--- par ---\n%s", id, seq, par)
		}
		if seqLog.String() != parLog.String() {
			t.Errorf("%s: progress log not deterministic under parallelism", id)
		}
	}
}

func TestCrossExperimentCacheHits(t *testing.T) {
	// fig1 (Stride/SMS/Perfect) and fig8 (Stride/SMS/B-Fetch) share their
	// Stride and SMS points and the no-prefetch baseline; one shared engine
	// must answer all of fig8's repeats from the cache.
	eng := runner.New(4)
	p := Params{
		Opts:      sim.RunOpts{WarmupInsts: 5_000, MeasureInsts: 10_000},
		Workloads: []string{"libquantum", "gamess"},
		Runner:    eng,
		Baselines: NewBaselineStore(),
	}
	for _, id := range []string{"fig1", "fig8"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(p); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	st := eng.Stats()
	// 2 workloads × 2 shared prefetcher configs = 4 hits minimum.
	if st.CacheHits < 4 {
		t.Errorf("cache stats after fig1+fig8: %+v, want ≥4 hits", st)
	}
}

func TestBaselineStoreSharesAcrossExperimentsWithoutCache(t *testing.T) {
	// With Runner nil each experiment gets its own engine, so no run-cache
	// spans the two experiments: only the baseline store can keep the
	// second one from re-simulating the shared no-prefetch baseline points.
	var engines []*runner.Engine
	defer func(orig func() *runner.Engine) { newEngine = orig }(newEngine)
	newEngine = func() *runner.Engine {
		eng := runner.New(1)
		engines = append(engines, eng)
		return eng
	}
	p := Params{
		Opts:      sim.RunOpts{WarmupInsts: 5_000, MeasureInsts: 10_000},
		Workloads: []string{"libquantum", "gamess"},
		Baselines: NewBaselineStore(),
	}
	run := func(id string) *runner.Engine {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		n := len(engines)
		if _, err := e.Run(p); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(engines) != n+1 {
			t.Fatalf("%s ran on %d new engines, want 1", id, len(engines)-n)
		}
		return engines[n]
	}
	run("fig8")
	if p.Baselines.Len() != len(p.Workloads) {
		t.Fatalf("baseline store holds %d points, want %d", p.Baselines.Len(), len(p.Workloads))
	}
	// fig12 needs 3 threshold configs × 2 workloads = 6 runs; its 2
	// baseline points must come from the store.
	if got := run("fig12").Stats().Runs; got != 6 {
		t.Errorf("fig12 ran %d sims on its own engine, want 6 (baselines from the store)", got)
	}
}

func TestUnknownWorkloadFailsEveryExperiment(t *testing.T) {
	// Each experiment that submits simulations, given a workload that does
	// not exist, returns an error naming it and no tables. The solo
	// experiments fail in their batch ("<engine> on nosuch: ..."); the mix
	// experiments reject the name while building their application pool.
	p := Params{
		Opts:      sim.RunOpts{WarmupInsts: 1_000, MeasureInsts: 1_000},
		Workloads: []string{"nosuch"},
		Mixes:     2,
		Baselines: NewBaselineStore(),
	}
	for _, id := range []string{"fig1", "fig8", "fig9", "fig10", "mix8", "fig11", "fig12",
		"fig13", "fig14", "fig15", "ablation", "cpistack", "ext-isb", "ext-bw",
		"ext-depth", "scale"} {
		t.Run(id, func(t *testing.T) {
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			tables, err := e.Run(p)
			if err == nil || !strings.Contains(err.Error(), "nosuch") {
				t.Errorf("got %v, want an error naming nosuch", err)
			}
			if tables != nil {
				t.Errorf("returned %d tables alongside the error", len(tables))
			}
		})
	}
}
