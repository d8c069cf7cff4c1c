package harness

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/store"
)

// TestExtensionTablesReadEngineResults pins ext-depth's lookahead cells and
// ext-isb's state rows to the runner results of the paper's protocol:
// fast-forward, warmup, then the measured window. Re-submitting the
// experiments' jobs hits the run cache, so the expected values are computed
// from the very results the tables were built from.
func TestExtensionTablesReadEngineResults(t *testing.T) {
	eng := runner.New(1)
	p := Params{
		Opts:      sim.RunOpts{FastForwardInsts: 20_000, WarmupInsts: 5_000, MeasureInsts: 10_000},
		Workloads: []string{"mcf", "lbm"},
		Runner:    eng,
	}
	run := func(p Params, id string) ([]*stats.Table, error) {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		return e.Run(p)
	}
	depth, err := run(p, "ext-depth")
	if err != nil {
		t.Fatal(err)
	}
	isb, err := run(p, "ext-isb")
	if err != nil {
		t.Fatal(err)
	}
	simulated := eng.Stats().Runs

	// result re-submits one job, which must be a run-cache hit.
	result := func(cfg sim.Config, app string) obs.Snapshot {
		t.Helper()
		res, err := eng.Run(runner.Solo(cfg, app, p.Opts))
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics
	}
	get := func(m obs.Snapshot, name string) uint64 {
		t.Helper()
		v, ok := m.Get("c0.pf." + name)
		if !ok {
			t.Fatalf("result has no c0.pf.%s", name)
		}
		return v
	}

	rows := depth[0].Rows
	if len(rows) != 5 {
		t.Fatalf("ext-depth has %d rows, want 5", len(rows))
	}
	for _, row := range rows {
		th, err := strconv.ParseFloat(row[0], 64)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.Default(sim.PFBFetch)
		cfg.BFetch.PathThreshold = th
		var steps, starts, conf, brtc uint64
		for _, name := range p.Workloads {
			m := result(cfg, name)
			steps += get(m, "lookahead_steps")
			starts += get(m, "lookahead_starts")
			conf += get(m, "lookahead_stops")
			brtc += get(m, "brtc_misses")
		}
		if starts == 0 {
			t.Fatalf("threshold %s: no lookahead started", row[0])
		}
		want := []string{fmt.Sprintf("%.3f", float64(steps)/float64(starts)), fmt.Sprint(conf), fmt.Sprint(brtc)}
		if got := row[1:4]; !slices.Equal(got, want) {
			t.Errorf("threshold %s: depth/stops cells %v, want %v from the results", row[0], got, want)
		}
	}

	meta := isb[2].Rows
	for i, kind := range []sim.PrefetcherKind{sim.PFISB, sim.PFSTeMS} {
		kb := float64(get(result(sim.Default(kind), "mcf"), "meta_bytes")) / 1024
		if want, got := fmt.Sprintf("%.1f KB ", kb), meta[2+i][1]; !strings.HasPrefix(got, want) {
			t.Errorf("%s state cell %q, want %q from the mcf result", kind, got, want)
		}
	}
	if got := eng.Stats().Runs; got != simulated {
		t.Errorf("re-submitted jobs simulated %d points, want 0 (all cache hits)", got-simulated)
	}

	// A result that lacks meta_bytes (stored here by hand) must make the
	// state table fail rather than print 0.0 KB.
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	job := runner.Solo(sim.Default(sim.PFISB), "mcf", p.Opts)
	stale, err := eng.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	var kept []obs.Sample
	for _, s := range stale.Metrics.Samples {
		if s.Name != "c0.pf.meta_bytes" {
			kept = append(kept, s)
		}
	}
	stale.Metrics.Samples = kept
	key, _ := runner.Fingerprint(job.Cfg, job.Apps, job.Opts)
	if err := st.PutResult(key, stale); err != nil {
		t.Fatal(err)
	}
	p.Runner = runner.New(1)
	p.Runner.SetStore(st)
	p.Workloads = []string{"mcf"}
	if _, err := run(p, "ext-isb"); err == nil || !strings.Contains(err.Error(), "meta_bytes") {
		t.Errorf("ext-isb on a result without meta_bytes: err = %v, want a missing-metric error", err)
	}
}
