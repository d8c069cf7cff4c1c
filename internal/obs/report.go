package obs

// Structured records. Each executed simulation emits one RunReport — the
// metrics-registry snapshot, the per-engine lifecycle breakdown, and the
// run's simulation throughput — and a batch collects them into a RunsFile.
// The batch itself is described by one Status. Every document, stream
// lines included, is versioned by a schema tag, and ValidateReport checks
// any of them: the obs-smoke CI target round-trips a real batch through it.

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Schema tags.
const (
	SchemaRun    = "bfetch-obs-run/v1"
	SchemaRuns   = "bfetch-obs/v1"
	SchemaStatus = "bfetch-obs-status/v1"
)

// RunReport is one executed simulation's observability record.
type RunReport struct {
	Schema string   `json:"schema"` // SchemaRun
	Engine string   `json:"engine"` // prefetcher kind
	Apps   []string `json:"apps"`   // one workload per core

	Cycles uint64    `json:"cycles"` // measured-window cycles
	Insts  uint64    `json:"insts"`  // committed instructions, all cores
	IPC    []float64 `json:"ipc"`    // per core

	Lifecycle  LifecycleStats   `json:"lifecycle"`          // summed over cores
	PerCore    []LifecycleStats `json:"per_core,omitempty"` // per-core breakdown (multi-core runs)
	Accuracy   float64          `json:"accuracy"`
	Coverage   float64          `json:"coverage"`
	Timeliness float64          `json:"timeliness"`

	Metrics Snapshot `json:"metrics"` // full registry snapshot

	// WallSeconds is the host time of the whole job: resolving its
	// checkpoints (a cache or store lookup, or an emulated fast-forward)
	// plus the simulation itself.
	WallSeconds   float64 `json:"wall_seconds"`
	KCyclesPerSec float64 `json:"sim_kcycles_per_sec"` // cycles / wall
}

// Finalize fills the derived fields (aggregate lifecycle and its ratios,
// throughput) from the raw ones; call after populating PerCore, Cycles and
// WallSeconds.
func (r *RunReport) Finalize() {
	r.Schema = SchemaRun
	r.Lifecycle = LifecycleStats{}
	for _, lc := range r.PerCore {
		r.Lifecycle.Add(lc)
	}
	if len(r.PerCore) == 1 {
		r.PerCore = nil // redundant with the aggregate
	}
	r.Accuracy = r.Lifecycle.Accuracy()
	r.Coverage = r.Lifecycle.Coverage()
	r.Timeliness = r.Lifecycle.Timeliness()
	if r.WallSeconds > 0 {
		r.KCyclesPerSec = float64(r.Cycles) / 1e3 / r.WallSeconds
	}
}

// RunsFile is the batch-level sink: every executed run's report, in
// completion order.
type RunsFile struct {
	Schema    string      `json:"schema"` // SchemaRuns
	Generated string      `json:"generated,omitempty"`
	Runs      []RunReport `json:"runs"`
}

// Status is the batch record: the runner's job, cache, checkpoint and
// store counters. It is served at /obs, published on /obs/stream after
// every finished job, and is the only type holding batch counters.
type Status struct {
	Schema     string `json:"schema"` // SchemaStatus
	Experiment string `json:"experiment,omitempty"`

	JobsDone  uint64 `json:"jobs_done"`
	JobsTotal uint64 `json:"jobs_total"`

	Runs        uint64 `json:"runs"`         // simulations executed (misses + uncacheable)
	CacheHits   uint64 `json:"cache_hits"`   // jobs answered from memory (or coalesced in flight)
	CacheMisses uint64 `json:"cache_misses"` // cacheable jobs that had to simulate
	// Checkpoint cache for fast-forward protocols: each (workload, FFInsts)
	// point is emulated once (a miss), resuming from the workload's
	// next-shorter point; every further simulation needing it restores
	// copy-on-write (a hit). Both count job requests only, not the lookups
	// of a predecessor to resume from.
	CkptHits   uint64 `json:"ckpt_hits"`
	CkptMisses uint64 `json:"ckpt_misses"`

	// Durable-store tier (internal/store), present when the batch runs
	// with -store. A store hit replaces a simulation (StoreHits) or a
	// checkpoint emulation (StoreCkptHits) with a disk read and counts in
	// neither memory column; a miss fell through to compute and was
	// written back, and StoreWriteErrs counts write-backs that failed.
	StoreHits        uint64  `json:"store_hits,omitempty"`
	StoreMisses      uint64  `json:"store_misses,omitempty"`
	StoreCkptHits    uint64  `json:"store_ckpt_hits,omitempty"`
	StoreCkptMisses  uint64  `json:"store_ckpt_misses,omitempty"`
	StoreWriteErrs   uint64  `json:"store_write_errs,omitempty"`
	StoreBytesRead   uint64  `json:"store_bytes_read,omitempty"`
	StoreReadSeconds float64 `json:"store_read_seconds,omitempty"`

	// Throughput, summed over executed runs' measured windows.
	SimCycles     uint64  `json:"sim_cycles"`
	SimInsts      uint64  `json:"sim_insts"`
	KCyclesPerSec float64 `json:"sim_kcycles_per_sec"` // cycles / uptime
	// EmuInsts counts functionally emulated instructions: what checkpoint
	// misses emulated past the point they resumed from, plus reported
	// profile work.
	EmuInsts uint64 `json:"emu_insts"`

	UptimeSeconds float64 `json:"uptime_seconds"`
}

// ValidateReport parses data as any obs document, dispatching on the schema
// tag, and checks structural invariants. It returns the schema found.
func ValidateReport(data []byte) (string, error) {
	var probe struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return "", fmt.Errorf("obs: not JSON: %w", err)
	}
	switch probe.Schema {
	case SchemaRun:
		var r RunReport
		if err := json.Unmarshal(data, &r); err != nil {
			return probe.Schema, fmt.Errorf("obs: malformed run report: %w", err)
		}
		return probe.Schema, validateRun(r)
	case SchemaRuns:
		var f RunsFile
		if err := json.Unmarshal(data, &f); err != nil {
			return probe.Schema, fmt.Errorf("obs: malformed runs file: %w", err)
		}
		if f.Runs == nil {
			return probe.Schema, fmt.Errorf("obs: runs file has no runs array")
		}
		for i, r := range f.Runs {
			if err := validateRun(r); err != nil {
				return probe.Schema, fmt.Errorf("obs: run %d: %w", i, err)
			}
		}
		return probe.Schema, nil
	case SchemaStatus:
		var s Status
		if err := json.Unmarshal(data, &s); err != nil {
			return probe.Schema, fmt.Errorf("obs: malformed status: %w", err)
		}
		if s.JobsDone > s.JobsTotal && s.JobsTotal != 0 {
			return probe.Schema, fmt.Errorf("obs: status jobs_done %d > jobs_total %d", s.JobsDone, s.JobsTotal)
		}
		return probe.Schema, nil
	case "":
		return "", fmt.Errorf("obs: missing schema tag")
	default:
		return probe.Schema, fmt.Errorf("obs: unknown schema %q", probe.Schema)
	}
}

// validateRun checks one run report's internal consistency.
func validateRun(r RunReport) error {
	if r.Schema != SchemaRun {
		return fmt.Errorf("run schema is %q, want %q", r.Schema, SchemaRun)
	}
	if r.Engine == "" {
		return fmt.Errorf("run has no engine")
	}
	if len(r.Apps) == 0 {
		return fmt.Errorf("run has no apps")
	}
	lc := r.Lifecycle
	if lc.Useful() > lc.Issued {
		return fmt.Errorf("lifecycle: useful %d exceeds issued %d", lc.Useful(), lc.Issued)
	}
	if lc.UselessEvicted > lc.Issued {
		return fmt.Errorf("lifecycle: useless %d exceeds issued %d", lc.UselessEvicted, lc.Issued)
	}
	for _, f := range []float64{r.Accuracy, r.Coverage, r.Timeliness} {
		if f < 0 || f > 1 {
			return fmt.Errorf("lifecycle ratio %v out of [0,1]", f)
		}
	}
	if len(r.Metrics.Samples) == 0 {
		return fmt.Errorf("run has an empty metrics snapshot")
	}
	for i := 1; i < len(r.Metrics.Samples); i++ {
		if r.Metrics.Samples[i-1].Name >= r.Metrics.Samples[i].Name {
			return fmt.Errorf("metrics snapshot not sorted/unique at %q", r.Metrics.Samples[i].Name)
		}
	}
	return validateCPI(r.Metrics)
}

// validateCPI enforces the exact-partition invariant on every core that
// exported a CPI stack: the bucket columns under "<core>.cpi." must sum to
// that core's "<core>.cycles" exactly. Samples are name-sorted, so each
// core's cpi.* columns form one contiguous run.
func validateCPI(m Snapshot) error {
	for i := 0; i < len(m.Samples); {
		name := m.Samples[i].Name
		idx := strings.Index(name, ".cpi.")
		if idx < 0 {
			i++
			continue
		}
		owner := name[:idx+1] // e.g. "c0.cpu."
		var sum uint64
		for i < len(m.Samples) && strings.HasPrefix(m.Samples[i].Name, owner+"cpi.") {
			sum += m.Samples[i].Value
			i++
		}
		cycles, ok := m.Get(owner + "cycles")
		if !ok {
			return fmt.Errorf("cpi stack %scpi.* has no matching %scycles", owner, owner)
		}
		if sum != cycles {
			return fmt.Errorf("cpi stack %scpi.* sums to %d, want exactly %scycles = %d", owner, sum, owner, cycles)
		}
	}
	return nil
}
