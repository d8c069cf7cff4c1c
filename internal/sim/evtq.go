package sim

// evtHeap is an indexed binary min-heap of (cycle, core) pairs: the event
// loop's next-event structure. Each still-running core appears at most once,
// keyed by the cycle of its next scheduled work; ties break toward the lower
// core index, so popping all entries at the minimum cycle yields the cores
// in ascending index order — the same order the naive loop ticks them, and
// so the order in which same-cycle requests reach the shared LLC and DRAM.
//
// A core's cached key is invalidated only when the core itself is ticked
// (its next event depends exclusively on core-local state: ROB completion
// times, fetch-queue timestamps, prefetch-engine occupancy — shared-level
// contention shifts the *latencies* such state was built from, at the access
// itself, never afterwards). That is the invalidation contract that lets the
// loop skip the per-event O(cores) NextEvent rescan: cost per event is
// O(changed cores · log N).
type evtHeap struct {
	key []uint64 // per core: scheduled next-event cycle
	h   []int32  // heap of core indices
	pos []int32  // core -> slot in h, -1 if absent
}

// reset sizes the heap for n cores and empties it.
func (q *evtHeap) reset(n int) {
	if cap(q.key) < n {
		q.key = make([]uint64, n)
		q.pos = make([]int32, n)
		q.h = make([]int32, 0, n)
	}
	q.key = q.key[:n]
	q.pos = q.pos[:n]
	q.h = q.h[:0]
	for i := range q.pos {
		q.pos[i] = -1
	}
}

// less orders heap entries by (key, core index).
func (q *evtHeap) less(a, b int32) bool {
	ka, kb := q.key[a], q.key[b]
	return ka < kb || (ka == kb && a < b)
}

func (q *evtHeap) swap(i, j int) {
	q.h[i], q.h[j] = q.h[j], q.h[i]
	q.pos[q.h[i]] = int32(i)
	q.pos[q.h[j]] = int32(j)
}

func (q *evtHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(q.h[i], q.h[parent]) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *evtHeap) down(i int) {
	n := len(q.h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && q.less(q.h[r], q.h[l]) {
			m = r
		}
		if !q.less(q.h[m], q.h[i]) {
			return
		}
		q.swap(i, m)
		i = m
	}
}

// push schedules (or reschedules) core i at cycle k.
func (q *evtHeap) push(i int32, k uint64) {
	q.key[i] = k
	if p := q.pos[i]; p >= 0 {
		q.up(int(p))
		q.down(int(q.pos[i]))
		return
	}
	q.h = append(q.h, i)
	q.pos[i] = int32(len(q.h) - 1)
	q.up(len(q.h) - 1)
}

// min returns the earliest scheduled cycle, or ok=false when empty.
func (q *evtHeap) min() (uint64, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.key[q.h[0]], true
}

// popMin removes and returns the earliest entry's core index.
func (q *evtHeap) popMin() int32 {
	i := q.h[0]
	last := len(q.h) - 1
	q.swap(0, last)
	q.h = q.h[:last]
	q.pos[i] = -1
	if last > 0 {
		q.down(0)
	}
	return i
}
