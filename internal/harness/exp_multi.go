package harness

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Multiprogrammed experiments: Figures 9 (mix-2) and 10 (mix-4). The FOA
// contention model selects the mixes (§V-A); performance is the weighted
// speedup Σ(IPC_multi/IPC_single) normalized to the no-prefetch baseline.

func init() {
	registerExperiment(Experiment{
		ID:    "fig9",
		Title: "Normalized weighted speedup, 29 two-application mixes",
		Paper: "B-Fetch 31.2% vs SMS 25.5% geomean over baseline",
		Run:   func(p Params) ([]*stats.Table, error) { return runMixes(p, 2, "Figure 9") },
	})
	registerExperiment(Experiment{
		ID:    "fig10",
		Title: "Normalized weighted speedup, 29 four-application mixes",
		Paper: "B-Fetch 28.5% vs SMS 19.6% geomean over baseline",
		Run:   func(p Params) ([]*stats.Table, error) { return runMixes(p, 4, "Figure 10") },
	})
	registerExperiment(Experiment{
		ID:    "mix8",
		Title: "Normalized weighted speedup, eight-application mixes (paper §V-B2 'preliminary results')",
		Paper: "\"Preliminary results with mixes of 8 workloads continue this trend\" — B-Fetch > SMS > Stride",
		Run: func(p Params) ([]*stats.Table, error) {
			if p.Mixes > 8 {
				p.Mixes = 8 // 8-core runs are expensive; the paper only ran a sample
			}
			return runMixes(p, 8, "Mix-8 extension")
		},
	})
}

// foaProfileInsts is the functional profile length behind mix selection.
const foaProfileInsts = 100_000

// foaProfiles returns the FOA contention estimate of each requested
// workload: the pool every mix experiment selects its mixes from.
func (p Params) foaProfiles() (map[string]float64, error) {
	foa, err := workload.FOAProfiles(foaProfileInsts)
	if err != nil {
		return nil, err
	}
	pool := make(map[string]float64, len(foa))
	for _, name := range p.workloads() {
		if v, ok := foa[name]; ok {
			pool[name] = v
		}
	}
	return pool, nil
}

// soloIPCs returns each pool application's IPC alone on the no-prefetch
// baseline: the weighted-speedup denominators, common to every prefetcher.
// The paper's normalization puts the baseline system at 1.0 and reports
// each prefetcher's multiprogrammed gain over it (§V-A, §V-B2). These are
// the same solo points every speedup figure divides by.
func (p Params) soloIPCs(foa map[string]float64) (map[string]float64, error) {
	apps := make([]string, 0, len(foa))
	for name := range foa {
		apps = append(apps, name)
	}
	sort.Strings(apps)
	res, err := p.baselineResults(sim.Default(sim.PFNone), apps)
	if err != nil {
		return nil, fmt.Errorf("solo baseline: %w", err)
	}
	solo := make(map[string]float64, len(apps))
	for i, name := range apps {
		solo[name] = res[i].IPC[0]
	}
	p.logf("  baseline solo IPCs done")
	return solo, nil
}

// soloOf returns one mix's weighted-speedup denominators.
func soloOf(solo map[string]float64, apps []string) []float64 {
	den := make([]float64, len(apps))
	for i, app := range apps {
		den[i] = solo[app]
	}
	return den
}

func runMixes(p Params, n int, figure string) ([]*stats.Table, error) {
	foa, err := p.foaProfiles()
	if err != nil {
		return nil, err
	}
	mixes := workload.SelectMixes(n, p.Mixes, foa)
	if len(mixes) == 0 {
		return nil, fmt.Errorf("harness: no %d-app mixes from %d workloads", n, len(foa))
	}
	solo, err := p.soloIPCs(foa)
	if err != nil {
		return nil, err
	}

	kinds := sim.Kinds
	// Weighted speedup per mix per kind, as one batch over the whole grid.
	var jobs []runner.Job
	for _, kind := range kinds {
		for _, mix := range mixes {
			jobs = append(jobs, runner.Multi(sim.Default(kind), mix.Apps, p.Opts))
		}
	}
	outs := p.Runner.RunAll(jobs)
	ws := map[sim.PrefetcherKind][]float64{}
	for ki, kind := range kinds {
		for mi, mix := range mixes {
			o := outs[ki*len(mixes)+mi]
			if o.Err != nil {
				return nil, fmt.Errorf("%s on %s (%v): %w", kind, mix.Name, mix.Apps, o.Err)
			}
			ws[kind] = append(ws[kind], stats.WeightedSpeedup(o.Result.IPC, soloOf(solo, mix.Apps)))
		}
		p.logf("  %s mixes for %s done", figure, kind)
	}

	t := stats.NewTable(
		fmt.Sprintf("%s: normalized weighted speedup, %d-application mixes", figure, n),
		"mix", "apps", "Stride", "SMS", "Bfetch")
	norm := func(kind sim.PrefetcherKind, i int) float64 {
		return ws[kind][i] / ws[sim.PFNone][i]
	}
	var geos [3][]float64
	for i, mix := range mixes {
		s, m, b := norm(sim.PFStride, i), norm(sim.PFSMS, i), norm(sim.PFBFetch, i)
		geos[0] = append(geos[0], s)
		geos[1] = append(geos[1], m)
		geos[2] = append(geos[2], b)
		t.AddRow(mix.Name, strings.Join(mix.Apps, "+"), s, m, b)
	}
	t.AddRow("Geomean", "-", stats.Geomean(geos[0]), stats.Geomean(geos[1]), stats.Geomean(geos[2]))
	return []*stats.Table{t}, nil
}
