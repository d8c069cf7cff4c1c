package obs

// Prefetch lifecycle classification. Every prefetch fill that installs a
// block is tracked from issue to its terminal transition, and classified:
//
//	issued ──► first demand touch, fill complete ─────────► useful (timely)
//	       ──► first demand touch, fill still in flight ──► useful (late)
//	       ──► evicted untouched ─────────────────────────► useless
//
// and, orthogonally, a demand re-miss of a block that a prefetch fill
// evicted is counted as pollution. Pollution is detected with a bounded
// direct-mapped victim table: when a prefetch fill evicts a valid block we
// record the victim's address; a later demand miss that matches consumes
// the entry. The table is a fixed 1024-entry array — deterministic,
// allocation-free, and (like the cache contents it mirrors) deliberately
// NOT cleared by stats resets, so a victim evicted during warmup whose
// re-miss lands in the measurement window is still attributed.
//
// The hooks are called from the cache's //bfetch:hotpath access path; all
// are nil-receiver safe so an un-instrumented cache pays one predictable
// branch, and none allocates.

// victimBits sizes the pollution victim table: 2^victimBits entries.
const victimBits = 10

// victimHash spreads block addresses over the table (Fibonacci hashing).
//
//bfetch:hotpath
func victimHash(blockAddr uint64) uint64 {
	return (blockAddr * 0x9E3779B97F4A7C15) >> (64 - victimBits)
}

// LifecycleStats is one engine's lifecycle breakdown over a measurement
// window. It is plain data (copyable, comparable with reflect.DeepEqual)
// so it can ride inside sim.Result.
type LifecycleStats struct {
	Issued         uint64 `json:"issued"`          // prefetch fills installed in the L1D
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

// Lifecycle classifies one L1D's prefetches. Construct with NewLifecycle;
// a nil *Lifecycle is a valid no-op sink for every hook.
type Lifecycle struct {
	stats LifecycleStats

	victims [1 << victimBits]uint64 //bfetch:noreset victim blockAddr+1, or 0; mirrors cache contents, which a stats reset keeps
}

// NewLifecycle registers the lifecycle counters under prefix (e.g.
// "c0.pf.") and returns the classifier.
func NewLifecycle(reg *Registry, prefix string) *Lifecycle {
	lc := &Lifecycle{}
	st := &lc.stats
	reg.Func(prefix+"issued", func() uint64 { return st.Issued })
	reg.Func(prefix+"useful_timely", func() uint64 { return st.UsefulTimely })
	reg.Func(prefix+"useful_late", func() uint64 { return st.UsefulLate })
	reg.Func(prefix+"useless_evicted", func() uint64 { return st.UselessEvicted })
	reg.Func(prefix+"polluting", func() uint64 { return st.Polluting })
	reg.Func(prefix+"demand_misses", func() uint64 { return st.DemandMisses })
	return lc
}

// ResetStats starts a measurement window: the counters restart with carry
// prefetches already issued. The caller passes the number of resident
// prefetched blocks no demand has touched yet, so a prefetch filled before
// the boundary whose first touch (or eviction) lands after it is counted
// in a window that also counts its issue. That keeps useful+useless <=
// issued in every window, which the run-report validator enforces.
func (lc *Lifecycle) ResetStats(carry uint64) {
	if lc == nil {
		return
	}
	lc.stats = LifecycleStats{Issued: carry}
}

// Stats returns the current breakdown.
func (lc *Lifecycle) Stats() LifecycleStats {
	if lc == nil {
		return LifecycleStats{}
	}
	return lc.stats
}

// Issued records a prefetch fill installing a block.
//
//bfetch:hotpath
func (lc *Lifecycle) Issued() {
	if lc == nil {
		return
	}
	lc.stats.Issued++
}

// Used records the first demand touch of a prefetched block; late reports
// whether the demand had to wait on the in-flight fill beyond the hit
// latency.
//
//bfetch:hotpath
func (lc *Lifecycle) Used(late bool) {
	if lc == nil {
		return
	}
	if late {
		lc.stats.UsefulLate++
	} else {
		lc.stats.UsefulTimely++
	}
}

// Evicted records a prefetched block leaving the cache untouched.
//
//bfetch:hotpath
func (lc *Lifecycle) Evicted() {
	if lc == nil {
		return
	}
	lc.stats.UselessEvicted++
}

// FillVictim records that a prefetch fill evicted a valid block, arming the
// pollution detector for that address.
//
//bfetch:hotpath
func (lc *Lifecycle) FillVictim(victimBlockAddr uint64) {
	if lc == nil {
		return
	}
	lc.victims[victimHash(victimBlockAddr)] = victimBlockAddr + 1
}

// DemandMiss records a demand (read or write) miss; if the address matches
// an armed victim entry, the miss is attributed to prefetch pollution and
// the entry is consumed.
//
//bfetch:hotpath
func (lc *Lifecycle) DemandMiss(blockAddr uint64) {
	if lc == nil {
		return
	}
	lc.stats.DemandMisses++
	h := victimHash(blockAddr)
	if lc.victims[h] == blockAddr+1 {
		lc.victims[h] = 0
		lc.stats.Polluting++
	}
}
