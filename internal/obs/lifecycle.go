package obs

// LifecycleStats is one engine's prefetch lifecycle breakdown over a
// measurement window, derived from its L1D's counters by
// cache.Stats.Lifecycle: every prefetch fill is classified as useful
// (timely or late) or useless, and a demand re-miss of a block a prefetch
// fill evicted counts as polluting. It is plain data (copyable, comparable
// with reflect.DeepEqual) so it can ride inside sim.Result.
type LifecycleStats struct {
	Issued         uint64 `json:"issued"`          // prefetch fills installed in the L1D, window-carried ones included
	UsefulTimely   uint64 `json:"useful_timely"`   // first demand touch after the fill completed
	UsefulLate     uint64 `json:"useful_late"`     // first demand touch while the fill was in flight
	UselessEvicted uint64 `json:"useless_evicted"` // evicted untouched
	Polluting      uint64 `json:"polluting"`       // demand re-miss of a block a prefetch fill evicted
	DemandMisses   uint64 `json:"demand_misses"`   // demand misses (denominator for coverage)
}

// Useful returns all demand-touched prefetches, timely or late.
func (s LifecycleStats) Useful() uint64 { return s.UsefulTimely + s.UsefulLate }

// Accuracy is useful prefetches per issued prefetch.
func (s LifecycleStats) Accuracy() float64 {
	if s.Issued == 0 {
		return 0
	}
	return float64(s.Useful()) / float64(s.Issued)
}

// Coverage is the fraction of would-be demand misses a timely prefetch
// eliminated: timely / (timely + remaining demand misses).
func (s LifecycleStats) Coverage() float64 {
	d := s.UsefulTimely + s.DemandMisses
	if d == 0 {
		return 0
	}
	return float64(s.UsefulTimely) / float64(d)
}

// Timeliness is the fraction of useful prefetches that completed before
// their demand arrived.
func (s LifecycleStats) Timeliness() float64 {
	if s.Useful() == 0 {
		return 0
	}
	return float64(s.UsefulTimely) / float64(s.Useful())
}

// Add accumulates o (for multi-core and cross-workload aggregation).
func (s *LifecycleStats) Add(o LifecycleStats) {
	s.Issued += o.Issued
	s.UsefulTimely += o.UsefulTimely
	s.UsefulLate += o.UsefulLate
	s.UselessEvicted += o.UselessEvicted
	s.Polluting += o.Polluting
	s.DemandMisses += o.DemandMisses
}
