// Package obs is the simulator's observability layer: a metrics registry
// every simulated component exports through, the prefetch lifecycle
// breakdown (useful timely or late, useless, polluting) the L1D's counters
// derive, CPI-stack attribution, and structured per-run JSON reports.
//
// The registry is a read-only view: components register named Func
// collectors at assembly time, and Snapshot reads them all. Every counter
// stays a plain field of the component that increments it, so the
// per-cycle kernel pays nothing for being observable, and each component's
// own ResetStats starts a measurement window; the registry keeps no counter
// state to reset.
//
// A Registry is deliberately NOT safe for concurrent use: one Registry
// belongs to one simulated System, which is owned by one worker goroutine
// (the same ownership discipline as every other simulation structure).
package obs

import "sort"

// Sample is one named scalar in a snapshot.
type Sample struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// Snapshot is a point-in-time copy of every registered metric, sorted by
// name so renderings and JSON are deterministic and diffable.
type Snapshot struct {
	Samples []Sample `json:"samples"`
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

type namedFunc struct {
	name string
	fn   func() uint64
}

// Registry holds the metric collectors of one simulated system. Construct
// with NewRegistry and register everything at assembly time, before the
// first cycle.
type Registry struct {
	names map[string]bool
	funcs []namedFunc
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

// Func registers a collector: fn is invoked at every Snapshot and reads a
// counter its owner increments and resets. A name registered twice panics.
func (r *Registry) Func(name string, fn func() uint64) {
	if r.names[name] {
		panic("obs: duplicate metric " + name)
	}
	r.names[name] = true
	r.funcs = append(r.funcs, namedFunc{name: name, fn: fn})
}

// Snapshot captures every metric, sorted by name.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Samples: make([]Sample, 0, len(r.funcs))}
	for _, f := range r.funcs {
		s.Samples = append(s.Samples, Sample{Name: f.name, Value: f.fn()})
	}
	sort.Slice(s.Samples, func(i, j int) bool { return s.Samples[i].Name < s.Samples[j].Name })
	return s
}
