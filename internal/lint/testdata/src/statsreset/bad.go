// Package statsreset holds known-bad fixtures for the statsreset analyzer.
// Type-checked by the golden tests, never built.
package statsreset

// counters forgets two fields in its reset: the PR 2 bug class.
type counters struct {
	hits   uint64
	misses uint64
	warm   bool
}

func (c *counters) ResetStats() { // want "field counters.misses is not reset" "field counters.warm is not reset"
	c.hits = 0
}

// gauge has a Reset (not ResetStats) with the same hole.
type gauge struct {
	level int
	peak  int
}

func (g *gauge) Reset() { // want "field gauge.peak is not reset"
	g.level = 0
}

// table resets its element slice but forgets the occupancy counter.
type table struct {
	slots []int
	used  int
}

func (t *table) Reset() { // want "field table.used is not reset"
	for i := range t.slots {
		t.slots[i] = 0
	}
}

// sampler has a window Restart that forgets its boundary cursor — the
// interval time-series shape of the same bug: stale nextAt replays warmup
// boundaries into the measurement window.
type sampler struct {
	ring   []uint64 //bfetch:noreset ring storage, emptied logically by rows=0
	rows   int
	step   uint64
	nextAt uint64
}

func (s *sampler) Restart(now uint64) { // want "field sampler.nextAt is not reset"
	s.rows = 0
	s.step = 1
}

// wired annotates its link but forgets the counter declared after it: a
// trailing marker belongs to its own field, not to the next one.
type wired struct {
	next *wired //bfetch:noreset wiring
	hits uint64
}

func (w *wired) ResetStats() { // want "field wired.hits is not reset"
}
