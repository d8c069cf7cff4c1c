package harness

import (
	"fmt"

	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Single-threaded experiments: Figures 1, 8, 11, 12, 13, 14, 15 and the
// design-choice ablations.

func init() {
	registerExperiment(Experiment{
		ID:    "fig1",
		Title: "Speedup of Stride, SMS and a Perfect L1-D prefetcher over no prefetching",
		Paper: "Perfect ≈2× geomean; Stride and SMS far below it; several benchmarks gain nothing (L1-resident)",
		Run:   runFig1,
	})
	registerExperiment(Experiment{
		ID:    "fig8",
		Title: "Single-threaded speedups: Stride vs SMS vs B-Fetch",
		Paper: "B-Fetch 23.2% geomean vs SMS 19.7%; 50.0% vs 41.5% on prefetch-sensitive; SMS wins milc",
		Run:   runFig8,
	})
	registerExperiment(Experiment{
		ID:    "fig11",
		Title: "Useful and useless prefetches issued: SMS vs B-Fetch",
		Paper: "B-Fetch ≈4% more useful and ≈50% fewer useless prefetches than SMS",
		Run:   runFig11,
	})
	registerExperiment(Experiment{
		ID:    "fig12",
		Title: "Branch path-confidence threshold sensitivity (0.45 / 0.75 / 0.90)",
		Paper: "20.6% / 23.2% / 23.0% average speedup; best at 0.75, stable across thresholds",
		Run:   runFig12,
	})
	registerExperiment(Experiment{
		ID:    "fig13",
		Title: "Branch predictor size sensitivity (0.5× / 1× / 2× / 4×)",
		Paper: "Miss rate 2.95→2.53%; B-Fetch speedup nearly flat (1.225→1.241 over baseline ≈1)",
		Run:   runFig13,
	})
	registerExperiment(Experiment{
		ID:    "fig14",
		Title: "Pipeline width sensitivity (2 / 4 / 8-wide)",
		Paper: "B-Fetch speedup 22.6% / 23.2% / 26.7% — grows mildly with width",
		Run:   runFig14,
	})
	registerExperiment(Experiment{
		ID:    "fig15",
		Title: "B-Fetch storage sensitivity (8.01 / 9.65 / 12.94 / 19.46 KB)",
		Paper: "17.0% / 18.9% / 23.2% / 23.1% geomean speedup — knee at 12.94 KB",
		Run:   runFig15,
	})
	registerExperiment(Experiment{
		ID:    "ablation",
		Title: "Design-choice ablations: per-load filter, loop term, patterns, ARF source",
		Paper: "(not a paper figure; DESIGN.md §5 — each mechanism should contribute)",
		Run:   runAblation,
	})
}

func runFig1(p Params) ([]*stats.Table, error) {
	configs := []sim.Config{
		sim.Default(sim.PFStride),
		sim.Default(sim.PFSMS),
		sim.Default(sim.PFPerfect),
	}
	series := []string{"Stride", "SMS", "Perfect"}
	data, lcs, _, err := speedups(p, configs, series)
	if err != nil {
		return nil, err
	}
	ws := p.workloads()
	t := speedupTable("Figure 1: speedup vs no-prefetch baseline", ws, series, data)

	// The dynamic prefetch-sensitive set: perfect speedup > 5%.
	sens := stats.NewTable("Figure 1 (aux): dynamically prefetch-sensitive benchmarks",
		"benchmark", "perfect_speedup", "sensitive")
	for wi, name := range ws {
		sens.AddRow(name, data[2][wi], fmt.Sprint(data[2][wi] > 1.05))
	}
	lt := lifecycleTable("Figure 1 (obs): prefetch lifecycle by engine", series, lcs)
	return []*stats.Table{t, sens, lt}, nil
}

func runFig8(p Params) ([]*stats.Table, error) {
	configs := []sim.Config{
		sim.Default(sim.PFStride),
		sim.Default(sim.PFSMS),
		sim.Default(sim.PFBFetch),
	}
	series := []string{"Stride", "SMS", "Bfetch"}
	data, lcs, _, err := speedups(p, configs, series)
	if err != nil {
		return nil, err
	}
	t := speedupTable("Figure 8: single-threaded speedups", p.workloads(), series, data)
	lt := lifecycleTable("Figure 8 (obs): prefetch lifecycle by engine", series, lcs)
	return []*stats.Table{t, lt}, nil
}

func runFig11(p Params) ([]*stats.Table, error) {
	t := stats.NewTable("Figure 11: useful and useless prefetches issued",
		"benchmark", "SMS_useful", "SMS_useless", "Bfetch_useful", "Bfetch_useless")
	ws := p.workloads()
	kinds := []sim.PrefetcherKind{sim.PFSMS, sim.PFBFetch}
	var jobs []runner.Job
	for _, name := range ws {
		for _, kind := range kinds {
			jobs = append(jobs, runner.Solo(sim.Default(kind), name, p.Opts))
		}
	}
	res, err := p.runBatch(jobs)
	if err != nil {
		return nil, err
	}
	var totals [4]uint64
	for wi, name := range ws {
		var row [4]uint64
		for i := range kinds {
			// Sourced from the lifecycle breakdown, which derives useful
			// (timely + late) and useless from the L1D's own counters.
			lc := res[wi*len(kinds)+i].Lifecycle[0]
			row[2*i] = lc.Useful()
			row[2*i+1] = lc.UselessEvicted
		}
		p.logf("  %-12s sms %d/%d bfetch %d/%d", name, row[0], row[1], row[2], row[3])
		for i := range totals {
			totals[i] += row[i]
		}
		t.AddRow(name, row[0], row[1], row[2], row[3])
	}
	t.AddRow("TOTAL", totals[0], totals[1], totals[2], totals[3])
	return []*stats.Table{t}, nil
}

func runFig12(p Params) ([]*stats.Table, error) {
	var configs []sim.Config
	var series []string
	for _, th := range []float64{0.45, 0.75, 0.90} {
		cfg := sim.Default(sim.PFBFetch)
		cfg.BFetch.PathThreshold = th
		configs = append(configs, cfg)
		series = append(series, fmt.Sprintf("Conf=%.2f", th))
	}
	data, lcs, _, err := speedups(p, configs, series)
	if err != nil {
		return nil, err
	}
	t := speedupTable("Figure 12: branch confidence threshold sensitivity", p.workloads(), series, data)
	lt := lifecycleTable("Figure 12 (obs): prefetch lifecycle by threshold", series, lcs)
	return []*stats.Table{t, lt}, nil
}

func runFig13(p Params) ([]*stats.Table, error) {
	scales := []float64{0.5, 1, 2, 4}
	names := []string{"0.5x", "Default", "2x", "4x"}
	t := stats.NewTable("Figure 13: branch predictor size sensitivity",
		"predictor", "baseline_speedup", "bfetch_speedup", "branch_miss_rate")

	// Per scale, a scaled-predictor baseline and B-Fetch, both over the
	// default no-prefetch baseline (the point set every speedup figure
	// shares).
	var configs []sim.Config
	var series []string
	for si, scale := range scales {
		for _, kind := range []sim.PrefetcherKind{sim.PFNone, sim.PFBFetch} {
			cfg := sim.Default(kind)
			cfg.Branch = cfg.Branch.Scaled(scale)
			configs = append(configs, cfg)
			series = append(series, names[si]+"/"+string(kind))
		}
	}
	data, _, res, err := speedups(p, configs, series)
	if err != nil {
		return nil, err
	}
	n := len(p.workloads())
	for si := range scales {
		var missRates []float64
		for _, r := range res[(2*si+1)*n : (2*si+2)*n] {
			missRates = append(missRates, r.Core[0].BranchMissRate())
		}
		p.logf("  scale %s done", names[si])
		t.AddRow(names[si], stats.Geomean(data[2*si]), stats.Geomean(data[2*si+1]),
			fmt.Sprintf("%.2f%%", 100*stats.Mean(missRates)))
	}
	return []*stats.Table{t}, nil
}

func runFig14(p Params) ([]*stats.Table, error) {
	widths := []int{2, 4, 8}
	ws := p.workloads()
	// Per workload and width, the same-width baseline then B-Fetch.
	var jobs []runner.Job
	for _, name := range ws {
		for _, w := range widths {
			for _, kind := range []sim.PrefetcherKind{sim.PFNone, sim.PFBFetch} {
				cfg := sim.Default(kind)
				cfg.CPU = cfg.CPU.WithWidth(w)
				jobs = append(jobs, runner.Solo(cfg, name, p.Opts))
			}
		}
	}
	res, err := p.runBatch(jobs)
	if err != nil {
		return nil, err
	}
	data := make([][]float64, len(widths))
	for i := range data {
		data[i] = make([]float64, len(ws))
	}
	for wi, name := range ws {
		for ci := range widths {
			k := (wi*len(widths) + ci) * 2
			data[ci][wi] = res[k+1].IPC[0] / res[k].IPC[0]
		}
		p.logf("  %-12s widths done", name)
	}
	t := speedupTable("Figure 14: CPU pipeline width sensitivity (B-Fetch speedup over same-width baseline)",
		ws, []string{"2wide", "4wide", "8wide"}, data)
	return []*stats.Table{t}, nil
}

func runFig15(p Params) ([]*stats.Table, error) {
	// The paper sweeps 64–512 BrTC entries (≈8–19.5 KB). The synthetic
	// kernels have far smaller static code footprints than SPEC, so table
	// pressure only appears at smaller scales; the sweep extends down to
	// 1/16 (16-entry BrTC, 8-entry MHT) to expose the capacity knee.
	scales := []float64{0.0625, 0.125, 0.25, 0.5, 1, 2}
	var configs []sim.Config
	var names []string
	for _, s := range scales {
		cfg := sim.Default(sim.PFBFetch)
		cfg.BFetch = cfg.BFetch.WithTableScale(s)
		configs = append(configs, cfg)
		kb := float64(storageOf(cfg)) / 8 / 1024
		names = append(names, fmt.Sprintf("%.2fKB", kb))
	}
	data, lcs, _, err := speedups(p, configs, names)
	if err != nil {
		return nil, err
	}
	t := speedupTable("Figure 15: B-Fetch storage sensitivity", p.workloads(), names, data)
	lt := lifecycleTable("Figure 15 (obs): prefetch lifecycle by storage budget", names, lcs)
	return []*stats.Table{t, lt}, nil
}

func runAblation(p Params) ([]*stats.Table, error) {
	full := sim.Default(sim.PFBFetch)

	noFilter := full
	noFilter.BFetch.EnableFilter = false
	noLoop := full
	noLoop.BFetch.EnableLoopPrefetch = false
	noPatt := full
	noPatt.BFetch.EnablePatterns = false
	commitARF := full
	commitARF.BFetch.ARFFromCommit = true
	privateBP := full
	privateBP.BFetch.PrivatePredictor = true

	configs := []sim.Config{full, noFilter, noLoop, noPatt, commitARF, privateBP}
	series := []string{"full", "no-filter", "no-loop", "no-patterns", "commit-ARF", "private-bp"}
	data, lcs, _, err := speedups(p, configs, series)
	if err != nil {
		return nil, err
	}
	t := speedupTable("Ablations: B-Fetch design choices", p.workloads(), series, data)
	lt := lifecycleTable("Ablations (obs): prefetch lifecycle by variant", series, lcs)
	return []*stats.Table{t, lt}, nil
}
