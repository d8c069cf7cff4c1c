// Package obs is the simulator's observability layer: a unified metrics
// registry every simulated component exports through, a prefetch lifecycle
// tracer that classifies each prefetch as useful, late, useless or
// polluting, a sampled ring-buffer event trace, structured per-run JSON
// reports, and a live HTTP introspection endpoint for long experiment
// batches.
//
// The registry replaces the previously scattered export paths (each stat
// struct hand-copied into Result and re-named per table) with one contract:
// components register metrics under canonical dotted names at assembly
// time, and a single Snapshot()/Reset() pair covers all of them. There are
// three instruments. The two hot-path ones, Counter and Histogram, are
// fixed-slot handles whose increments are allocation-free — bfetch-lint's
// compiler-witnessed escape gate audits them like the rest of the per-cycle
// kernel. Cold metrics (existing stat struct fields) register as Func
// collectors read at snapshot time, so the per-cycle kernel keeps its plain
// field increments.
//
// A Registry is deliberately NOT safe for concurrent use: one Registry
// belongs to one simulated System, which is owned by one worker goroutine
// (the same ownership discipline as every other simulation structure).
package obs

import (
	"math/bits"
	"sort"
)

// Counter is a monotonically increasing metric. The zero value is unusable;
// obtain one from Registry.Counter.
type Counter struct{ v *uint64 }

// Inc adds one.
//
//bfetch:hotpath
func (c Counter) Inc() { *c.v++ }

// Add adds n.
//
//bfetch:hotpath
func (c Counter) Add(n uint64) { *c.v += n }

// Value returns the current count.
func (c Counter) Value() uint64 { return *c.v }

// HistBuckets is the number of log2 histogram buckets: bucket i counts
// observations v with bits.Len64(v) == i (so bucket 0 is exactly 0, bucket
// 1 is exactly 1, bucket 2 is 2–3, ...), with everything at or beyond
// 2^(HistBuckets-1) clamped into the last bucket.
const HistBuckets = 18

type histState struct {
	count   uint64
	sum     uint64
	buckets [HistBuckets]uint64
}

// Histogram is a fixed-bucket log2 histogram. The zero value is unusable;
// obtain one from Registry.Histogram.
type Histogram struct{ h *histState }

// Observe records one value.
//
//bfetch:hotpath
func (h Histogram) Observe(v uint64) {
	b := bits.Len64(v)
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	h.h.count++
	h.h.sum += v
	h.h.buckets[b]++
}

// Count returns the number of observations.
func (h Histogram) Count() uint64 { return h.h.count }

// Sample is one named scalar in a snapshot.
type Sample struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// HistSample is one named histogram in a snapshot.
type HistSample struct {
	Name    string              `json:"name"`
	Count   uint64              `json:"count"`
	Sum     uint64              `json:"sum"`
	Buckets [HistBuckets]uint64 `json:"buckets"`
}

// Snapshot is a point-in-time copy of every registered metric, sorted by
// name so renderings and JSON are deterministic and diffable.
type Snapshot struct {
	Samples []Sample     `json:"samples"`
	Hists   []HistSample `json:"histograms,omitempty"`
}

// Get returns the named scalar sample, or false. Snapshots are sorted by
// name, so this is a binary search.
func (s Snapshot) Get(name string) (uint64, bool) {
	i := sort.Search(len(s.Samples), func(i int) bool { return s.Samples[i].Name >= name })
	if i < len(s.Samples) && s.Samples[i].Name == name {
		return s.Samples[i].Value, true
	}
	return 0, false
}

type namedCell struct {
	name string
	v    *uint64
}

type namedHist struct {
	name string
	h    *histState
}

type namedFunc struct {
	name string
	fn   func() uint64
}

// scalarSrc is one sealed scalar source: a counter cell or a collector
// function.
type scalarSrc struct {
	name string
	v    *uint64
	fn   func() uint64
}

// Registry holds the metrics of one simulated system. Construct with
// NewRegistry; register everything at assembly time, before the first
// cycle — registration is the cold path, increments are the hot path.
type Registry struct {
	names    map[string]bool //bfetch:noreset registration table, not a counter
	counters []namedCell     //bfetch:noreset registration table; the cells it points at are reset
	hists    []namedHist     //bfetch:noreset registration table; the states it points at are reset
	funcs    []namedFunc     //bfetch:noreset collectors read live component state, reset by its owner
	sealed   []scalarSrc     //bfetch:noreset sealed registration table (see SealScalars)
}

// Registrant is implemented by components that export metrics: the system
// assembler calls RegisterObs on every component it wires, passing the
// component's canonical name prefix (e.g. "c0.l1d.").
type Registrant interface {
	RegisterObs(reg *Registry, prefix string)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

func (r *Registry) claim(name string) {
	if r.sealed != nil {
		panic("obs: metric " + name + " registered after SealScalars")
	}
	if r.names[name] {
		panic("obs: duplicate metric " + name)
	}
	r.names[name] = true
}

// Counter registers and returns a counter.
func (r *Registry) Counter(name string) Counter {
	r.claim(name)
	c := Counter{v: new(uint64)}
	r.counters = append(r.counters, namedCell{name: name, v: c.v})
	return c
}

// Histogram registers and returns a histogram.
func (r *Registry) Histogram(name string) Histogram {
	r.claim(name)
	h := Histogram{h: &histState{}}
	r.hists = append(r.hists, namedHist{name: name, h: h.h})
	return h
}

// Func registers a collector: fn is invoked at every Snapshot. Use it to
// export existing stat-struct fields without rerouting their hot-path
// increments; the owner's ResetStats covers the Reset contract.
func (r *Registry) Func(name string, fn func() uint64) {
	r.claim(name)
	r.funcs = append(r.funcs, namedFunc{name: name, fn: fn})
}

// Len reports the number of registered metrics.
func (r *Registry) Len() int { return len(r.names) }

// SealScalars freezes the scalar metric set (counters and Func collectors;
// histograms are excluded) into a name-sorted read schedule and returns the
// names in that order. After sealing, further registration panics — the
// interval sampler's row layout must not shift mid-run. Idempotent: a second
// call returns the same schedule.
func (r *Registry) SealScalars() []string {
	if r.sealed == nil {
		r.sealed = make([]scalarSrc, 0, len(r.counters)+len(r.funcs))
		for _, c := range r.counters {
			r.sealed = append(r.sealed, scalarSrc{name: c.name, v: c.v})
		}
		for _, f := range r.funcs {
			r.sealed = append(r.sealed, scalarSrc{name: f.name, fn: f.fn})
		}
		sort.Slice(r.sealed, func(i, j int) bool { return r.sealed[i].name < r.sealed[j].name })
	}
	names := make([]string, len(r.sealed))
	for i, s := range r.sealed {
		names[i] = s.name
	}
	return names
}

// ReadScalarsInto fills dst (length == len(SealScalars())) with the current
// scalar values in sealed order. Allocation-free: the interval sampler calls
// it at every cycle boundary.
func (r *Registry) ReadScalarsInto(dst []uint64) {
	for i := range r.sealed {
		s := &r.sealed[i]
		if s.v != nil {
			dst[i] = *s.v
		} else {
			dst[i] = s.fn()
		}
	}
}

// Snapshot captures every metric, sorted by name.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Samples: make([]Sample, 0, len(r.counters)+len(r.funcs))}
	for _, c := range r.counters {
		s.Samples = append(s.Samples, Sample{Name: c.name, Value: *c.v})
	}
	for _, f := range r.funcs {
		s.Samples = append(s.Samples, Sample{Name: f.name, Value: f.fn()})
	}
	sort.Slice(s.Samples, func(i, j int) bool { return s.Samples[i].Name < s.Samples[j].Name })
	if len(r.hists) > 0 {
		s.Hists = make([]HistSample, 0, len(r.hists))
		for _, h := range r.hists {
			s.Hists = append(s.Hists, HistSample{
				Name: h.name, Count: h.h.count, Sum: h.h.sum, Buckets: h.h.buckets,
			})
		}
		sort.Slice(s.Hists, func(i, j int) bool { return s.Hists[i].Name < s.Hists[j].Name })
	}
	return s
}

// Reset zeroes every counter and histogram. Func collectors read live
// component state and are reset by their owners (sim.System.ResetStats
// resets both sides in one call).
func (r *Registry) Reset() {
	for _, c := range r.counters {
		*c.v = 0
	}
	for _, h := range r.hists {
		*h.h = histState{}
	}
}
