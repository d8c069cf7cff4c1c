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
	base := sim.Default(sim.PFNone)
	configs := []sim.Config{
		sim.Default(sim.PFStride),
		sim.Default(sim.PFSMS),
		sim.Default(sim.PFPerfect),
	}
	data, lcs, err := speedups(p, base, configs)
	if err != nil {
		return nil, err
	}
	ws := p.workloads()
	t := speedupTable("Figure 1: speedup vs no-prefetch baseline", ws,
		[]string{"Stride", "SMS", "Perfect"}, data)

	// The dynamic prefetch-sensitive set: perfect speedup > 5%.
	sens := stats.NewTable("Figure 1 (aux): dynamically prefetch-sensitive benchmarks",
		"benchmark", "perfect_speedup", "sensitive")
	for wi, name := range ws {
		sens.AddRow(name, data[2][wi], fmt.Sprint(data[2][wi] > 1.05))
	}
	lt := lifecycleTable("Figure 1 (obs): prefetch lifecycle by engine",
		[]string{"Stride", "SMS", "Perfect"}, lcs)
	return []*stats.Table{t, sens, lt}, nil
}

func runFig8(p Params) ([]*stats.Table, error) {
	base := sim.Default(sim.PFNone)
	configs := []sim.Config{
		sim.Default(sim.PFStride),
		sim.Default(sim.PFSMS),
		sim.Default(sim.PFBFetch),
	}
	data, lcs, err := speedups(p, base, configs)
	if err != nil {
		return nil, err
	}
	t := speedupTable("Figure 8: single-threaded speedups", p.workloads(),
		[]string{"Stride", "SMS", "Bfetch"}, data)
	lt := lifecycleTable("Figure 8 (obs): prefetch lifecycle by engine",
		[]string{"Stride", "SMS", "Bfetch"}, lcs)
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
	outs := p.Runner.RunAll(jobs)
	var totals [4]uint64
	for wi, name := range ws {
		var row [4]uint64
		for i := range kinds {
			o := outs[wi*len(kinds)+i]
			if o.Err != nil {
				return nil, fmt.Errorf("%s on %s: %w", kinds[i], name, o.Err)
			}
			// Sourced from the lifecycle classifier (useful = timely + late),
			// which TestLifecycleMatchesCacheStats pins to the L1D counters.
			lc := o.Result.Lifecycle[0]
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
	base := sim.Default(sim.PFNone)
	var configs []sim.Config
	thresholds := []float64{0.45, 0.75, 0.90}
	for _, th := range thresholds {
		cfg := sim.Default(sim.PFBFetch)
		cfg.BFetch.PathThreshold = th
		configs = append(configs, cfg)
	}
	data, lcs, err := speedups(p, base, configs)
	if err != nil {
		return nil, err
	}
	t := speedupTable("Figure 12: branch confidence threshold sensitivity", p.workloads(),
		[]string{"Conf=0.45", "Conf=0.75", "Conf=0.90"}, data)
	lt := lifecycleTable("Figure 12 (obs): prefetch lifecycle by threshold",
		[]string{"Conf=0.45", "Conf=0.75", "Conf=0.90"}, lcs)
	return []*stats.Table{t, lt}, nil
}

func runFig13(p Params) ([]*stats.Table, error) {
	scales := []float64{0.5, 1, 2, 4}
	names := []string{"0.5x", "Default", "2x", "4x"}
	t := stats.NewTable("Figure 13: branch predictor size sensitivity",
		"predictor", "baseline_speedup", "bfetch_speedup", "branch_miss_rate")

	// Reference baseline: default predictor, no prefetcher — the same point
	// set every speedup figure shares, so it comes from the baseline store.
	ws := p.workloads()
	refRes, err := p.baselineResults(sim.Default(sim.PFNone), ws)
	if err != nil {
		return nil, err
	}
	ref := make(map[string]float64, len(ws))
	for i, name := range ws {
		ref[name] = refRes[i].IPC[0]
	}

	// One batch over the whole grid: per scale, a scaled-predictor baseline
	// and B-Fetch run per workload.
	var jobs []runner.Job
	for _, scale := range scales {
		baseCfg := sim.Default(sim.PFNone)
		baseCfg.Branch = baseCfg.Branch.Scaled(scale)
		bfCfg := sim.Default(sim.PFBFetch)
		bfCfg.Branch = bfCfg.Branch.Scaled(scale)
		for _, name := range ws {
			jobs = append(jobs,
				runner.Solo(baseCfg, name, p.Opts),
				runner.Solo(bfCfg, name, p.Opts))
		}
	}
	outs := p.Runner.RunAll(jobs)
	for si := range scales {
		var baseSp, bfSp, missRates []float64
		for wi, name := range ws {
			ob := outs[(si*len(ws)+wi)*2]
			of := outs[(si*len(ws)+wi)*2+1]
			if ob.Err != nil {
				return nil, fmt.Errorf("scaled baseline on %s: %w", name, ob.Err)
			}
			if of.Err != nil {
				return nil, fmt.Errorf("scaled bfetch on %s: %w", name, of.Err)
			}
			baseSp = append(baseSp, ob.Result.IPC[0]/ref[name])
			bfSp = append(bfSp, of.Result.IPC[0]/ref[name])
			missRates = append(missRates, ob.Result.Core[0].BranchMissRate())
		}
		p.logf("  scale %s done", names[si])
		t.AddRow(names[si], stats.Geomean(baseSp), stats.Geomean(bfSp),
			fmt.Sprintf("%.2f%%", 100*stats.Mean(missRates)))
	}
	return []*stats.Table{t}, nil
}

func runFig14(p Params) ([]*stats.Table, error) {
	widths := []int{2, 4, 8}
	var configs []sim.Config
	var bases []sim.Config
	for _, w := range widths {
		bf := sim.Default(sim.PFBFetch)
		bf.CPU = bf.CPU.WithWidth(w)
		configs = append(configs, bf)
		nb := sim.Default(sim.PFNone)
		nb.CPU = nb.CPU.WithWidth(w)
		bases = append(bases, nb)
	}
	ws := p.workloads()
	var jobs []runner.Job
	for _, name := range ws {
		for ci := range configs {
			jobs = append(jobs,
				runner.Solo(bases[ci], name, p.Opts),
				runner.Solo(configs[ci], name, p.Opts))
		}
	}
	outs := p.Runner.RunAll(jobs)
	data := make([][]float64, len(widths))
	for i := range data {
		data[i] = make([]float64, len(ws))
	}
	for wi, name := range ws {
		for ci := range configs {
			ob := outs[(wi*len(configs)+ci)*2]
			of := outs[(wi*len(configs)+ci)*2+1]
			if ob.Err != nil {
				return nil, fmt.Errorf("%d-wide baseline on %s: %w", widths[ci], name, ob.Err)
			}
			if of.Err != nil {
				return nil, fmt.Errorf("%d-wide bfetch on %s: %w", widths[ci], name, of.Err)
			}
			data[ci][wi] = of.Result.IPC[0] / ob.Result.IPC[0]
		}
		p.logf("  %-12s widths done", name)
	}
	t := speedupTable("Figure 14: CPU pipeline width sensitivity (B-Fetch speedup over same-width baseline)",
		ws, []string{"2wide", "4wide", "8wide"}, data)
	return []*stats.Table{t}, nil
}

func runFig15(p Params) ([]*stats.Table, error) {
	base := sim.Default(sim.PFNone)
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
	data, lcs, err := speedups(p, base, configs)
	if err != nil {
		return nil, err
	}
	t := speedupTable("Figure 15: B-Fetch storage sensitivity", p.workloads(), names, data)
	lt := lifecycleTable("Figure 15 (obs): prefetch lifecycle by storage budget", names, lcs)
	return []*stats.Table{t, lt}, nil
}

func runAblation(p Params) ([]*stats.Table, error) {
	base := sim.Default(sim.PFNone)
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
	data, lcs, err := speedups(p, base, configs)
	if err != nil {
		return nil, err
	}
	series := []string{"full", "no-filter", "no-loop", "no-patterns", "commit-ARF", "private-bp"}
	t := speedupTable("Ablations: B-Fetch design choices", p.workloads(), series, data)
	lt := lifecycleTable("Ablations (obs): prefetch lifecycle by variant", series, lcs)
	return []*stats.Table{t, lt}, nil
}
