package core

// The per-load filter (§IV-B3) guards against loads whose effective
// addresses resist prediction even when path confidence is high. It is a
// skewed sampling predictor in the style of Khan/Tian/Jiménez's dead-block
// predictor: three tables of 3-bit up-down saturating counters, each indexed
// by a different hash of the load PC. The per-load confidence is the sum of
// the three counters; prefetching for a load stops when the sum falls below
// the threshold (3, Table II). Per-load confidence takes precedence over
// branch-path confidence.
//
// Feedback comes from the L1D: each prefetched block carries a 10-bit hash
// of the prefetching load's PC and a usefulness bit (the "additional cache
// bits" of Table I). A demand touch increments the counters; an untouched
// eviction decrements them.
type loadFilter struct {
	tables    [3][]uint8
	mask      uint64
	threshold int
	probe     uint64

	Blocked uint64 // prefetch candidates suppressed by the filter
}

const filterCounterMax = 7

// newLoadFilter builds the three tables; entriesPerTable is a power of two
// (Config.Validate).
func newLoadFilter(entriesPerTable, threshold int) *loadFilter {
	f := &loadFilter{mask: uint64(entriesPerTable - 1), threshold: threshold}
	for t := range f.tables {
		f.tables[t] = make([]uint8, entriesPerTable)
		for i := range f.tables[t] {
			f.tables[t][i] = 1 // sum 3 == threshold: new loads start allowed
		}
	}
	return f
}

// idx hashes the load PC differently per table (distinct odd multipliers).
var filterMixers = [3]uint64{0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9}

func (f *loadFilter) idx(table int, loadPC uint64) uint64 {
	h := (loadPC >> 2) * filterMixers[table]
	h ^= h >> 29
	return h & f.mask
}

// confidence returns the summed counter value for a load PC.
func (f *loadFilter) confidence(loadPC uint64) int {
	s := 0
	for t := range f.tables {
		s += int(f.tables[t][f.idx(t, loadPC)])
	}
	return s
}

// allow reports whether prefetches for this load may issue, counting
// suppressions. A blocked load is let through on probation once every 64
// candidates: without occasional probes a load whose behaviour changed could
// never re-earn confidence, since blocked loads generate no feedback. (In
// the paper's full-size system the three skewed tables alias across the
// thousands of static loads, which provides this drift naturally.)
func (f *loadFilter) allow(loadPC uint64) bool {
	if f.confidence(loadPC) >= f.threshold {
		return true
	}
	f.probe++
	if f.probe&63 == 0 {
		return true
	}
	f.Blocked++
	return false
}

// useful and useless apply cache feedback.
func (f *loadFilter) useful(loadPC uint64) {
	for t := range f.tables {
		i := f.idx(t, loadPC)
		if f.tables[t][i] < filterCounterMax {
			f.tables[t][i]++
		}
	}
}

func (f *loadFilter) useless(loadPC uint64) {
	for t := range f.tables {
		i := f.idx(t, loadPC)
		if f.tables[t][i] > 0 {
			f.tables[t][i]--
		}
	}
}

// storageBits: 3 × entries × 3 bits; Table I's 2.25 KB at 3×2048.
func (f *loadFilter) storageBits() int { return 3 * len(f.tables[0]) * 3 }
