package harness

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// CPI-stack experiment: the "where do the cycles go" breakdown behind the
// paper's fig-level claim. Every speedup figure shows B-Fetch gaining over
// Stride/SMS, but only a cycle-attribution stack shows *which* stall
// component each engine removes — the paper argues branch-directed lookahead
// converts DRAM-stall cycles into timely fills, and this table measures
// exactly that: per engine, the fraction of core cycles charged to each
// attribution bucket (base/retire, front-end, memory levels, queueing), with
// the exact-partition invariant (buckets sum to cycles) enforced end-to-end
// by obs.ValidateReport.

func init() {
	registerExperiment(Experiment{
		ID:    "cpistack",
		Title: "CPI stack: per-engine cycle attribution, solo and 16-core mix",
		Paper: "§V mechanism check: B-Fetch's speedup should show up as DRAM-stall cycles converted to base cycles",
		Run:   runCPIStack,
	})
}

// cpiEngines is every prefetch engine the repo implements, baseline first —
// the attribution sweep covers the paper's comparators and the extension
// engines alike.
var cpiEngines = []sim.PrefetcherKind{
	sim.PFNone, sim.PFNextN, sim.PFStride, sim.PFSMS,
	sim.PFSTeMS, sim.PFISB, sim.PFBFetch,
}

func runCPIStack(p Params) ([]*stats.Table, error) {
	ws := p.workloads()

	// Solo sweep: each engine on every workload alone, attribution enabled.
	var jobs []runner.Job
	for _, kind := range cpiEngines {
		cfg := sim.Default(kind)
		cfg.CPU.CPIStack = true
		for _, name := range ws {
			jobs = append(jobs, runner.Solo(cfg, name, p.Opts))
		}
	}
	outs := p.Runner.RunAll(jobs)
	solo := stats.NewTable(
		"CPI stack, solo (fraction of core cycles per bucket, summed over workloads)",
		cpiCols()...)
	for ki, kind := range cpiEngines {
		var cpi obs.CPIStack
		for wi, name := range ws {
			o := outs[ki*len(ws)+wi]
			if o.Err != nil {
				return nil, fmt.Errorf("%s on %s: %w", kind, name, o.Err)
			}
			for _, cs := range o.Result.Core {
				cpi.AddStack(&cs.CPI)
			}
		}
		solo.AddRow(cpiRow(string(kind), cpi)...)
		p.logf("  cpistack solo %s done", kind)
	}

	// 16-core mix: the highest-FOA 16-application mix on the scale-out
	// memory system (banked LLC, channeled DRAM), so the queueing buckets —
	// llc_bank_queue, dram_chan_queue — have real contention to attribute.
	foa, err := p.foaProfiles()
	if err != nil {
		return nil, err
	}
	mixes := workload.SelectMixes(16, 1, foa)
	if len(mixes) == 0 {
		return nil, fmt.Errorf("harness: no 16-app mix from %d workloads", len(foa))
	}
	mix := mixes[0]
	jobs = jobs[:0]
	for _, kind := range cpiEngines {
		cfg := sim.DefaultScale(kind, 16)
		cfg.CPU.CPIStack = true
		jobs = append(jobs, runner.Multi(cfg, mix.Apps, p.Opts))
	}
	outs = p.Runner.RunAll(jobs)
	mixT := stats.NewTable(
		fmt.Sprintf("CPI stack, 16-core mix %s (fraction of core cycles per bucket, summed over cores)", mix.Name),
		cpiCols()...)
	for ki, kind := range cpiEngines {
		o := outs[ki]
		if o.Err != nil {
			return nil, fmt.Errorf("%s on mix %s: %w", kind, mix.Name, o.Err)
		}
		var cpi obs.CPIStack
		for _, cs := range o.Result.Core {
			cpi.AddStack(&cs.CPI)
		}
		mixT.AddRow(cpiRow(string(kind), cpi)...)
		p.logf("  cpistack mix16 %s done", kind)
	}
	return []*stats.Table{solo, mixT}, nil
}

// cpiCols is the stacked table's column layout: engine, total cycles, then
// one fraction column per attribution bucket in bucket order.
func cpiCols() []string {
	cols := []string{"engine", "cycles"}
	for _, n := range obs.CPIBucketNames {
		cols = append(cols, n)
	}
	return cols
}

// cpiRow renders one engine's stack as fractions of its total cycles.
func cpiRow(name string, cpi obs.CPIStack) []any {
	total := cpi.Total()
	row := []any{name, total}
	for _, v := range cpi {
		if total == 0 {
			row = append(row, 0.0)
			continue
		}
		row = append(row, float64(v)/float64(total))
	}
	return row
}
