// Package bfetch is the public API of this repository: a from-scratch Go
// reproduction of "B-Fetch: Branch Prediction Directed Prefetching for
// Chip-Multiprocessors" (Kadjo et al., MICRO 2014).
//
// The package re-exports the user-facing surface of the internal packages:
//
//   - the simulated systems (single-core and CMP with shared LLC) and their
//     Table II baseline configuration,
//   - the four evaluated prefetchers (none/stride/SMS/B-Fetch, plus the
//     perfect-L1 oracle) and the Prefetcher interface for writing new ones,
//   - the 18 SPEC-named synthetic workloads and the toy-ISA toolchain for
//     building custom kernels,
//   - the experiment harness that regenerates every table and figure in the
//     paper's evaluation.
//
// Quick start:
//
//	cfg := bfetch.DefaultConfig(bfetch.PFBFetch)
//	res, err := bfetch.RunSolo(cfg, "mcf", bfetch.DefaultRunOpts())
//	fmt.Println(res.IPC[0])
//
// See the examples/ directory for complete programs.
package bfetch

import (
	"repro/internal/branch"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// System configuration and execution.

type (
	// Config describes a system under test (cores, caches, predictor,
	// prefetcher); see DefaultConfig.
	Config = sim.Config
	// RunOpts sets the fast-forward/warmup/measure protocol.
	RunOpts = sim.RunOpts
	// Result carries the measured counters of a run.
	Result = sim.Result
	// System is an assembled simulation, for callers that want to drive
	// the clock themselves.
	System = sim.System
	// PrefetcherKind selects one of the built-in prefetchers.
	PrefetcherKind = sim.PrefetcherKind
)

// Built-in prefetcher kinds.
const (
	PFNone    = sim.PFNone
	PFStride  = sim.PFStride
	PFSMS     = sim.PFSMS
	PFBFetch  = sim.PFBFetch
	PFPerfect = sim.PFPerfect
	PFNextN   = sim.PFNextN
	PFCustom  = sim.PFCustom
)

// DefaultConfig returns the paper's Table II baseline with the given
// prefetcher.
func DefaultConfig(pf PrefetcherKind) Config { return sim.Default(pf) }

// DefaultRunOpts returns the experiments' measurement protocol: 1M
// instructions of functional fast-forward, 100k of cycle-accurate warmup,
// 300k measured — the paper's 10B/1B/1B phases scaled to the kernels.
func DefaultRunOpts() RunOpts { return sim.DefaultRunOpts() }

// NewSystem assembles a system running the given workloads, one per core.
func NewSystem(cfg Config, apps []Workload) (*System, error) { return sim.New(cfg, apps) }

// Run measures the named applications on a CMP (one core each).
func Run(cfg Config, appNames []string, opts RunOpts) (Result, error) {
	return sim.Run(cfg, appNames, opts)
}

// RunSolo measures one application on a single core.
func RunSolo(cfg Config, appName string, opts RunOpts) (Result, error) {
	return sim.RunSolo(cfg, appName, opts)
}

// B-Fetch engine configuration (the paper's contribution).

// BFetchConfig sizes the B-Fetch engine; see Config.BFetch.
type BFetchConfig = core.Config

// Workloads.

type (
	// Workload is one benchmark kernel.
	Workload = workload.Workload
	// Mix is one multiprogrammed workload combination.
	Mix = workload.Mix
)

// Workloads returns the 18 SPEC-named synthetic kernels.
func Workloads() []Workload { return workload.All() }

// WorkloadByName looks up one kernel.
func WorkloadByName(name string) (Workload, error) { return workload.ByName(name) }

// NewWorkload wraps a custom program builder as a Workload. Its built
// image stays on the Go heap, where the garbage collector can reclaim it
// once the Workload is dropped; only the 18 built-in kernels, which live
// until exit, are sealed outside the heap in a mapping that is never
// unmapped.
func NewWorkload(name, description, character string, memoryIntensive bool,
	build func() (*Program, *Memory)) Workload {
	return workload.New(name, description, character, memoryIntensive, build)
}

// SelectMixes returns the count highest-contention n-application mixes under
// the FOA model, given per-workload FOA profiles (see FOAProfiles).
func SelectMixes(n, count int, foa map[string]float64) []Mix {
	return workload.SelectMixes(n, count, foa)
}

// FOAProfiles measures every workload's LLC reach rate over profileInsts
// functionally executed instructions.
func FOAProfiles(profileInsts uint64) (map[string]float64, error) {
	return workload.FOAProfiles(profileInsts)
}

// Toy-ISA toolchain, for building custom kernels.

type (
	// Program is an assembled toy-ISA program.
	Program = isa.Program
	// ProgramBuilder assembles programs in code.
	ProgramBuilder = isa.Builder
	// Memory is a simulated address space.
	Memory = mem.Memory
)

// Assemble parses toy-ISA assembly text.
func Assemble(src string) (*Program, error) { return isa.Assemble(src) }

// NewProgramBuilder returns an empty program builder.
func NewProgramBuilder() *ProgramBuilder { return isa.NewBuilder() }

// NewMemory returns an empty address space.
func NewMemory() *Memory { return mem.New() }

// Custom prefetchers.

type (
	// Prefetcher is the contract between a core and its prefetch engine.
	Prefetcher = prefetch.Prefetcher
	// PrefetcherBase provides no-op hooks for embedding.
	PrefetcherBase = prefetch.Base
	// PrefetchRequest is one prefetch a Prefetcher wants issued.
	PrefetchRequest = prefetch.Request
	// AccessInfo describes a demand L1D access delivered to OnAccess.
	AccessInfo = prefetch.AccessInfo
	// DecodeInfo describes a decoded control instruction (OnDecode).
	DecodeInfo = prefetch.DecodeInfo
	// CommitInfo describes a retiring instruction (OnCommit).
	CommitInfo = prefetch.CommitInfo
	// BranchPredictor is the shared tournament predictor handed to custom
	// prefetcher factories.
	BranchPredictor = branch.Predictor
	// BranchConfidence is the composite confidence estimator.
	BranchConfidence = branch.Confidence
)

// Experiments.

// Experiment reproduces one of the paper's tables or figures.
type Experiment = harness.Experiment

// ExperimentParams tunes an experiment run.
type ExperimentParams = harness.Params

// Table is the text/CSV table experiments return.
type Table = stats.Table

// Experiments lists every reproduced artifact (fig1..fig15, tab1, tab2,
// ablation).
func Experiments() []Experiment { return harness.All() }

// ExperimentByID fetches one experiment.
func ExperimentByID(id string) (Experiment, error) { return harness.ByID(id) }

// DefaultExperimentParams mirrors the paper's measurement protocol at
// simulation-friendly scale.
func DefaultExperimentParams() ExperimentParams { return harness.DefaultParams() }
