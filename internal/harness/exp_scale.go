package harness

import (
	"fmt"
	"strings"

	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Scale-out extension (ROADMAP item 3): the paper stops at 4-core mixes;
// this experiment sweeps CMP sizes up to 64 cores on the scale-out memory
// system (banked LLC, channeled DRAM — sim.DefaultScale) and reports how
// each prefetcher's weighted-speedup gain, the DRAM bandwidth demand, and
// prefetch pollution move with core count, plus the shared-resource
// contention the new bank/channel models expose.

func init() {
	registerExperiment(Experiment{
		ID:    "scale",
		Title: "Scale-out: speedup, bandwidth and pollution vs core count (banked LLC, channeled DRAM)",
		Paper: "extension of §V-B2's mix-8 'preliminary results' to 16/64-core CMPs",
		Run:   runScale,
	})
}

// scaleDefaultCores is the sweep when Params.ScaleCores is empty.
var scaleDefaultCores = []int{2, 4, 8, 16, 64}

func runScale(p Params) ([]*stats.Table, error) {
	counts := p.ScaleCores
	if len(counts) == 0 {
		counts = scaleDefaultCores
	}
	foa, err := p.foaProfiles()
	if err != nil {
		return nil, err
	}

	// One top-contention mix per core count; the sweep axis is the CMP
	// size, not mix diversity (fig9/fig10/mix8 cover that).
	mixes := make([]workload.Mix, len(counts))
	for i, n := range counts {
		ms := workload.SelectMixes(n, 1, foa)
		if len(ms) == 0 {
			return nil, fmt.Errorf("harness: no %d-app mix from %d workloads", n, len(foa))
		}
		mixes[i] = ms[0]
	}

	kinds := sim.Kinds
	var jobs []runner.Job
	for _, kind := range kinds {
		for i, n := range counts {
			jobs = append(jobs, runner.Multi(sim.DefaultScale(kind, n), mixes[i].Apps, p.Opts))
		}
	}
	solo, out, err := p.runWithSolo(foa, jobs)
	if err != nil {
		return nil, err
	}
	res := map[sim.PrefetcherKind][]sim.Result{}
	for ki, kind := range kinds {
		res[kind] = out[ki*len(counts) : (ki+1)*len(counts)]
		p.logf("  scale sweep for %s done", kind)
	}

	ws := func(kind sim.PrefetcherKind, i int) float64 {
		return stats.WeightedSpeedup(res[kind][i].IPC, soloOf(solo, mixes[i].Apps))
	}

	speedup := stats.NewTable(
		"Scale extension: normalized weighted speedup vs core count",
		"cores", "apps", "Stride", "SMS", "Bfetch")
	for i, n := range counts {
		base := ws(sim.PFNone, i)
		speedup.AddRow(fmt.Sprintf("%d", n), shortApps(mixes[i].Apps),
			ws(sim.PFStride, i)/base, ws(sim.PFSMS, i)/base, ws(sim.PFBFetch, i)/base)
	}

	contention := stats.NewTable(
		"Scale extension: shared-memory contention vs core count",
		"cores", "engine", "dram B/cyc", "dram stall/xfer", "bank wait/acc", "pollute/kinst")
	for i, n := range counts {
		cfg := sim.DefaultScale(sim.PFNone, n)
		for _, kind := range kinds {
			r := res[kind][i]
			cycles := float64(r.Cycles)
			xfers := float64(r.DRAM.Transfers())
			bw, stallPerXfer := 0.0, 0.0
			if cycles > 0 {
				bw = xfers * 64 / cycles
			}
			if xfers > 0 {
				stallPerXfer = float64(r.DRAM.StallCycles) / xfers
			}
			var bankWait uint64
			for b := 0; b < cfg.LLCBanks; b++ {
				if v, ok := r.Metrics.Get(fmt.Sprintf("llc.b%d.queue_cycles", b)); ok {
					bankWait += v
				}
			}
			bankPerAcc := 0.0
			if r.LLC.Accesses > 0 {
				bankPerAcc = float64(bankWait) / float64(r.LLC.Accesses)
			}
			var polluting, committed uint64
			for _, lc := range r.Lifecycle {
				polluting += lc.Polluting
			}
			for _, cs := range r.Core {
				committed += cs.Committed
			}
			polKinst := 0.0
			if committed > 0 {
				polKinst = float64(polluting) / float64(committed) * 1000
			}
			contention.AddRow(fmt.Sprintf("%d", n), string(kind), bw, stallPerXfer, bankPerAcc, polKinst)
		}
	}
	return []*stats.Table{speedup, contention}, nil
}

// shortApps renders a mix's application list, eliding repetition in wide
// (tiled) mixes: every distinct app with its multiplicity.
func shortApps(apps []string) string {
	counts := map[string]int{}
	order := []string{}
	for _, a := range apps {
		if counts[a] == 0 {
			order = append(order, a)
		}
		counts[a]++
	}
	if len(order) == len(apps) {
		return strings.Join(apps, "+")
	}
	parts := make([]string, len(order))
	for i, a := range order {
		parts[i] = fmt.Sprintf("%s×%d", a, counts[a])
	}
	return strings.Join(parts, "+")
}
