// Package harness defines one experiment per table and figure in the
// paper's evaluation (§V), plus the ablation studies DESIGN.md calls out.
// Each experiment runs the simulator and renders the same rows or series
// the paper reports, as text tables with CSV export.
//
// Experiments submit their simulation points as batches to a runner.Engine
// (see internal/runner), so independent points execute across a worker pool
// and repeated points — above all the shared no-prefetch baseline — are
// memoized. Tables are assembled in submission order, making output
// byte-identical whatever the worker count.
package harness

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Params tunes an experiment run.
type Params struct {
	// Opts is the warmup/measure protocol per simulation.
	Opts sim.RunOpts
	// Workloads restricts the benchmark set (nil = all 18).
	Workloads []string
	// Mixes is the number of multiprogrammed mixes (paper: 29).
	Mixes int
	// ScaleCores lists the CMP sizes the scale experiment sweeps
	// (nil = 2, 4, 8, 16, 64).
	ScaleCores []int
	// Log, when non-nil, receives progress lines. Writes are serialized, so
	// sharing one writer across concurrent experiments is safe.
	Log io.Writer
	// Runner executes simulation batches. nil gives each experiment a fresh
	// GOMAXPROCS-wide engine; share one Engine across experiments (as
	// cmd/bfetch-bench does) to also share its memoized results, so e.g.
	// fig1 and fig8 simulate their common Stride/SMS points once.
	Runner *runner.Engine
	// Baselines shares no-prefetch baseline results across experiments at
	// the API level — independent of the runner cache, so even experiments
	// that each get their own engine (Runner nil) compute each baseline
	// point once. nil disables
	// cross-experiment sharing (each speedups call still runs its baseline
	// only once).
	Baselines *BaselineStore
}

// DefaultParams mirrors the paper's protocol at simulation-friendly scale.
func DefaultParams() Params {
	return Params{
		Opts:      sim.DefaultRunOpts(),
		Mixes:     29,
		Baselines: NewBaselineStore(),
	}
}

func (p Params) workloads() []string {
	if len(p.Workloads) > 0 {
		return p.Workloads
	}
	return workload.Names()
}

// logMu serializes progress output: experiments may log from pool workers,
// and several experiments may share one writer.
var logMu sync.Mutex

func (p Params) logf(format string, args ...any) {
	if p.Log == nil {
		return
	}
	logMu.Lock()
	defer logMu.Unlock()
	fmt.Fprintf(p.Log, format+"\n", args...)
}

// newEngine builds the engine an experiment runs on when Params.Runner is
// nil: a fresh GOMAXPROCS-wide one.
var newEngine = func() *runner.Engine { return runner.New(0) }

// Experiment reproduces one paper artifact.
type Experiment struct {
	ID    string // paper artifact id: fig1, tab1, ...
	Title string
	// Paper summarises what the original reports, for EXPERIMENTS.md.
	Paper string
	Run   func(Params) ([]*stats.Table, error)
}

var experiments []Experiment

// registerExperiment wraps Run so every experiment sees a non-nil Runner
// that stays fixed for the whole run — within one experiment, repeated
// points always share one cache even when the caller left Runner nil.
func registerExperiment(e Experiment) {
	run := e.Run
	e.Run = func(p Params) ([]*stats.Table, error) {
		if p.Runner == nil {
			p.Runner = newEngine()
		}
		return run(p)
	}
	experiments = append(experiments, e)
}

// All returns the experiments in registration (paper) order.
func All() []Experiment { return append([]Experiment(nil), experiments...) }

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range experiments {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range experiments {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q (have %v)", id, ids)
}

// ----------------------------------------------------------------- shared --

// BaselineStore memoizes baseline simulation results per (config, workload,
// protocol) point across experiments. Figures 1, 8, 12, 14 and 15 and the
// mix experiments all normalize to the same no-prefetch baseline; one store
// per bfetch-bench invocation makes them share a single result set even
// when each experiment runs on its own engine.
type BaselineStore struct {
	mu sync.Mutex
	m  map[string]sim.Result
}

// NewBaselineStore returns an empty store.
func NewBaselineStore() *BaselineStore {
	return &BaselineStore{m: make(map[string]sim.Result)}
}

func (s *BaselineStore) get(key string) (sim.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.m[key]
	return r, ok
}

func (s *BaselineStore) put(key string, r sim.Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = r
}

// Len reports how many baseline points are stored.
func (s *BaselineStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// baselineResults returns cfg's solo result for each named workload,
// consulting the shared store first and batching only the missing points
// through the engine.
func (p Params) baselineResults(cfg sim.Config, names []string) ([]sim.Result, error) {
	out := make([]sim.Result, len(names))
	keys := make([]string, len(names))
	var missing []int
	var jobs []runner.Job
	for i, name := range names {
		if p.Baselines != nil {
			if key, ok := runner.Fingerprint(cfg, []string{name}, p.Opts); ok {
				keys[i] = key
				if r, hit := p.Baselines.get(key); hit {
					out[i] = r
					continue
				}
			}
		}
		missing = append(missing, i)
		jobs = append(jobs, runner.Solo(cfg, name, p.Opts))
	}
	outs := p.Runner.RunAll(jobs)
	for k, i := range missing {
		if err := outs[k].Err; err != nil {
			return nil, fmt.Errorf("baseline on %s: %w", names[i], err)
		}
		out[i] = outs[k].Result
		if p.Baselines != nil && keys[i] != "" {
			p.Baselines.put(keys[i], outs[k].Result)
		}
	}
	return out, nil
}

// speedups measures per-workload speedups of each configuration over the
// baseline configuration. All points are submitted as one batch — baseline
// results come from the shared store — and the result is assembled in
// submission order, indexed [config][workload order]. The second return is
// each configuration's prefetch lifecycle breakdown summed over workloads,
// for the accuracy/coverage/timeliness table every speedup figure emits.
func speedups(p Params, baseline sim.Config, configs []sim.Config) ([][]float64, []obs.LifecycleStats, error) {
	ws := p.workloads()
	base, err := p.baselineResults(baseline, ws)
	if err != nil {
		return nil, nil, err
	}
	jobs := make([]runner.Job, 0, len(configs)*len(ws))
	for _, cfg := range configs {
		for _, name := range ws {
			jobs = append(jobs, runner.Solo(cfg, name, p.Opts))
		}
	}
	outs := p.Runner.RunAll(jobs)

	out := make([][]float64, len(configs))
	lcs := make([]obs.LifecycleStats, len(configs))
	for ci, cfg := range configs {
		out[ci] = make([]float64, len(ws))
		for wi, name := range ws {
			o := outs[ci*len(ws)+wi]
			if o.Err != nil {
				return nil, nil, fmt.Errorf("%s on %s: %w", label(cfg, ci), name, o.Err)
			}
			out[ci][wi] = o.Result.IPC[0] / base[wi].IPC[0]
			for _, lc := range o.Result.Lifecycle {
				lcs[ci].Add(lc)
			}
		}
	}
	for wi, name := range ws {
		for ci, cfg := range configs {
			p.logf("  %-12s %-8s speedup %.3f", name, label(cfg, ci), out[ci][wi])
		}
	}
	return out, lcs, nil
}

// lifecycleTable renders the per-engine prefetch lifecycle report: raw
// classification counts plus the paper's three quality ratios. The counts
// come from the unified obs registry, so this table, the JSON run reports
// and the live endpoint all agree by construction.
func lifecycleTable(title string, series []string, lcs []obs.LifecycleStats) *stats.Table {
	t := stats.NewTable(title,
		"engine", "issued", "useful_timely", "useful_late", "useless_evicted",
		"polluting", "accuracy", "coverage", "timeliness")
	for i, name := range series {
		lc := lcs[i]
		t.AddRow(name, lc.Issued, lc.UsefulTimely, lc.UsefulLate, lc.UselessEvicted,
			lc.Polluting, lc.Accuracy(), lc.Coverage(), lc.Timeliness())
	}
	return t
}

func label(cfg sim.Config, i int) string {
	if cfg.Prefetcher != "" {
		return string(cfg.Prefetcher)
	}
	return fmt.Sprintf("cfg%d", i)
}

// sensitiveSet returns which of the given workloads are memory-intensive —
// the static stand-in for the paper's "prefetch sensitive" set (those that
// benefit from a perfect prefetcher; fig1 computes the dynamic version).
func sensitiveSet(names []string) map[string]bool {
	out := map[string]bool{}
	for _, name := range names {
		if w, err := workload.ByName(name); err == nil && w.MemoryIntensive {
			out[name] = true
		}
	}
	return out
}

// speedupTable renders the per-benchmark speedup layout shared by Figures
// 1, 8, 12, 14 and 15: one row per workload, one column per series, then
// Geomean and Geomean-pf-sensitive rows.
func speedupTable(title string, workloads []string, series []string, data [][]float64) *stats.Table {
	t := stats.NewTable(title, append([]string{"benchmark"}, series...)...)
	sens := sensitiveSet(workloads)
	for wi, name := range workloads {
		row := []any{name}
		for si := range series {
			row = append(row, data[si][wi])
		}
		t.AddRow(row...)
	}
	addGeo := func(label string, filter func(string) bool) {
		row := []any{label}
		for si := range series {
			var vals []float64
			for wi, name := range workloads {
				if filter(name) {
					vals = append(vals, data[si][wi])
				}
			}
			if len(vals) == 0 {
				row = append(row, "-")
				continue
			}
			row = append(row, stats.Geomean(vals))
		}
		t.AddRow(row...)
	}
	addGeo("Geomean", func(string) bool { return true })
	addGeo("Geomean pf. sens.", func(n string) bool { return sens[n] })
	return t
}
