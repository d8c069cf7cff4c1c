package harness

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Extension experiments beyond the paper's figures: the heavy-weight ISB
// comparator (§III-B positions B-Fetch against it qualitatively: comparable
// accuracy on irregular codes, but megabytes of off-chip meta-data) and the
// lookahead-depth characterization backing the paper's "average lookahead
// depth is 8 BB at 0.75 confidence" observation.

func init() {
	registerExperiment(Experiment{
		ID:    "ext-isb",
		Title: "Extension: B-Fetch vs the heavy-weight ISB and STeMS prefetchers (storage vs performance)",
		Paper: "§III-B (qualitative): STeMS ≈ SMS+3% with MBs of off-chip meta-data; ISB high irregular accuracy with ≈8 MB off-chip + 8.4% traffic",
		Run:   runExtISB,
	})
	registerExperiment(Experiment{
		ID:    "ext-bw",
		Title: "Extension: DRAM bandwidth sensitivity (prefetching under channel pressure)",
		Paper: "§V-A fixes the channel at 12.8 GB/s; this sweep varies it to show accuracy's value when bandwidth is scarce",
		Run:   runExtBandwidth,
	})
	registerExperiment(Experiment{
		ID:    "ext-depth",
		Title: "Extension: B-Fetch lookahead depth vs confidence threshold",
		Paper: "§V-B1 (in passing): average lookahead depth ≈8 BB at 0.75 path confidence",
		Run:   runExtDepth,
	})
}

func runExtISB(p Params) ([]*stats.Table, error) {
	configs := []sim.Config{
		sim.Default(sim.PFSMS),
		sim.Default(sim.PFBFetch),
		sim.Default(sim.PFISB),
		sim.Default(sim.PFSTeMS),
	}
	// Meta-data growth: ISB's and STeMS's state after their measured mcf
	// window (repeats of speedup points when mcf is in the workload set),
	// against B-Fetch's fixed budget.
	heavy := []sim.PrefetcherKind{sim.PFISB, sim.PFSTeMS}
	series := []string{"SMS", "Bfetch", "ISB", "STeMS"}
	data, lcs, res, err := speedups(p, configs, series,
		runner.Solo(sim.Default(heavy[0]), "mcf", p.Opts),
		runner.Solo(sim.Default(heavy[1]), "mcf", p.Opts))
	if err != nil {
		return nil, err
	}
	t := speedupTable("Extension: SMS vs B-Fetch vs ISB vs STeMS speedups", p.workloads(), series, data)
	lt := lifecycleTable("Extension (obs): prefetch lifecycle by engine", series, lcs)

	var kb [2]float64
	for i, r := range res[len(res)-len(heavy):] {
		// The metric set is not part of Result's shape: an engine that
		// stops reporting meta_bytes would leave the state table at 0.0 KB
		// instead of failing.
		v, ok := r.Metrics.Get("c0.pf.meta_bytes")
		if !ok {
			return nil, fmt.Errorf("harness: %s result on mcf has no c0.pf.meta_bytes", heavy[i])
		}
		kb[i] = float64(v) / 1024
	}
	meta := stats.NewTable("Extension: prefetcher state after an mcf run",
		"prefetcher", "state", "location")
	meta.AddRow("B-Fetch", "12.84 KB (fixed)", "on-chip")
	meta.AddRow("SMS", "≈65 KB (fixed)", "on-chip")
	meta.AddRow("ISB", fmt.Sprintf("%.1f KB (grows with footprint)", kb[0]),
		"off-chip in the original (≈8 MB budget, +8.4% traffic)")
	meta.AddRow("STeMS", fmt.Sprintf("%.1f KB (grows with history)", kb[1]),
		"temporal log off-chip in the original (MBs)")
	return []*stats.Table{t, lt, meta}, nil
}

// runExtBandwidth measures SMS and B-Fetch speedups while scaling the DRAM
// channel from half to double the Table II bandwidth. Useless prefetches
// cost channel slots, so the accuracy gap should widen as bandwidth shrinks.
func runExtBandwidth(p Params) ([]*stats.Table, error) {
	t := stats.NewTable("Extension: DRAM bandwidth sensitivity (geomean speedup over same-bandwidth baseline)",
		"cycles_per_64B", "GBps_at_3.2GHz", "SMS", "Bfetch")
	cpfs := []uint64{32, 16, 8}
	kinds := []sim.PrefetcherKind{sim.PFNone, sim.PFSMS, sim.PFBFetch}
	ws := p.workloads()
	var jobs []runner.Job
	for _, cpf := range cpfs {
		for _, name := range ws {
			for _, kind := range kinds {
				cfg := sim.Default(kind)
				cfg.DRAMCyclesPerFill = cpf
				jobs = append(jobs, runner.Solo(cfg, name, p.Opts))
			}
		}
	}
	res, err := p.runBatch(jobs)
	if err != nil {
		return nil, err
	}
	k := 0
	for _, cpf := range cpfs {
		var smsSp, bfSp []float64
		for range ws {
			none, sms, bf := res[k], res[k+1], res[k+2]
			smsSp = append(smsSp, sms.IPC[0]/none.IPC[0])
			bfSp = append(bfSp, bf.IPC[0]/none.IPC[0])
			k += len(kinds)
		}
		p.logf("  %d cycles/fill done", cpf)
		t.AddRow(fmt.Sprint(cpf), fmt.Sprintf("%.1f", 64.0/float64(cpf)*3.2),
			stats.Geomean(smsSp), stats.Geomean(bfSp))
	}
	return []*stats.Table{t}, nil
}

func runExtDepth(p Params) ([]*stats.Table, error) {
	t := stats.NewTable("Extension: B-Fetch lookahead behaviour vs confidence threshold",
		"threshold", "avg_depth_BB", "stops_conf", "stops_brtc", "geomean_speedup")
	thresholds := []float64{0.45, 0.60, 0.75, 0.90, 0.97}
	var configs []sim.Config
	var series []string
	for _, th := range thresholds {
		cfg := sim.Default(sim.PFBFetch)
		cfg.BFetch.PathThreshold = th
		configs = append(configs, cfg)
		series = append(series, fmt.Sprintf("Conf=%.2f", th))
	}
	data, _, res, err := speedups(p, configs, series)
	if err != nil {
		return nil, err
	}
	n := len(p.workloads())
	for ti, th := range thresholds {
		var steps, starts, stopsConf, stopsBrtc uint64
		for _, r := range res[(ti+1)*n : (ti+2)*n] {
			m := r.Metrics
			steps += metric(m, "c0.pf.lookahead_steps")
			starts += metric(m, "c0.pf.lookahead_starts")
			stopsConf += metric(m, "c0.pf.lookahead_stops")
			stopsBrtc += metric(m, "c0.pf.brtc_misses")
		}
		avg := 0.0
		if starts > 0 {
			avg = float64(steps) / float64(starts)
		}
		p.logf("  threshold %.2f: depth %.1f", th, avg)
		t.AddRow(fmt.Sprintf("%.2f", th), avg, stopsConf, stopsBrtc, stats.Geomean(data[ti]))
	}
	return []*stats.Table{t}, nil
}

// metric reads one scalar from a result's metrics snapshot; a metric the
// system did not register reads as 0.
func metric(m obs.Snapshot, name string) uint64 {
	v, _ := m.Get(name)
	return v
}
