package obs

import "testing"

func newTestLifecycle(t *testing.T) (*Lifecycle, *Registry) {
	t.Helper()
	reg := NewRegistry()
	return NewLifecycle(reg, "pf."), reg
}

// TestLifecycleTimelyVsLate drives the classifier with hand-built sequences:
// a prefetch whose fill completed before the demand arrived is timely; one
// the demand had to wait on is late.
func TestLifecycleTimelyVsLate(t *testing.T) {
	lc, _ := newTestLifecycle(t)

	// Timely: filled at cycle 10, ready at 210, first touch at 500.
	lc.Issued()
	lc.Used(false)

	// Late: filled at cycle 20, ready at 220, demand arrived at 30.
	lc.Issued()
	lc.Used(true)

	st := lc.Stats()
	want := LifecycleStats{Issued: 2, UsefulTimely: 1, UsefulLate: 1}
	if st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
	if st.Useful() != 2 {
		t.Errorf("Useful = %d, want 2", st.Useful())
	}
	if acc := st.Accuracy(); acc != 1.0 {
		t.Errorf("Accuracy = %v, want 1", acc)
	}
	if tml := st.Timeliness(); tml != 0.5 {
		t.Errorf("Timeliness = %v, want 0.5", tml)
	}
}

// TestLifecycleUselessVsPolluting distinguishes a prefetch evicted untouched
// (useless) from one whose fill displaced a block the program still needed
// (polluting).
func TestLifecycleUselessVsPolluting(t *testing.T) {
	lc, _ := newTestLifecycle(t)

	// Useless: issued, never touched, evicted.
	lc.Issued()
	lc.Evicted()

	// Polluting: the fill of 0xB0 evicts victim 0xC0; the demand re-miss of
	// 0xC0 is attributed to pollution and consumes the armed entry.
	lc.Issued()
	lc.FillVictim(0xC0)
	lc.DemandMiss(0xC0)
	lc.DemandMiss(0xC0) // second miss: entry consumed, not pollution

	// An unrelated demand miss never counts as pollution.
	lc.DemandMiss(0xD0)

	st := lc.Stats()
	want := LifecycleStats{Issued: 2, UselessEvicted: 1, Polluting: 1, DemandMisses: 3}
	if st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
	if acc := st.Accuracy(); acc != 0 {
		t.Errorf("Accuracy = %v, want 0", acc)
	}
}

func TestLifecycleCoverage(t *testing.T) {
	lc, _ := newTestLifecycle(t)
	// 3 timely prefetches against 9 remaining demand misses: coverage 0.25.
	for i := uint64(0); i < 3; i++ {
		lc.Issued()
		lc.Used(false)
	}
	for i := uint64(0); i < 9; i++ {
		lc.DemandMiss(0xF000 + i*64)
	}
	if cov := lc.Stats().Coverage(); cov != 0.25 {
		t.Errorf("Coverage = %v, want 0.25", cov)
	}
}

// TestLifecycleResetStats checks the window-boundary rule: a reset that
// carries in the still-pending prefetches keeps useful+useless ≤ issued.
func TestLifecycleResetStats(t *testing.T) {
	lc, _ := newTestLifecycle(t)
	lc.Issued()
	lc.Issued()
	lc.Used(false)
	lc.DemandMiss(0x40)

	lc.ResetStats(1) // window boundary: one prefetch still untouched
	if st := lc.Stats(); st != (LifecycleStats{Issued: 1}) {
		t.Errorf("after reset: %+v, want only issued 1", st)
	}
	lc.Used(false)

	st := lc.Stats()
	if st.Issued != 1 || st.UsefulTimely != 1 {
		t.Errorf("after carry-in: %+v, want issued 1, timely 1", st)
	}
	if st.Useful() > st.Issued {
		t.Errorf("useful %d exceeds issued %d despite carry-in", st.Useful(), st.Issued)
	}

	// A nil classifier accepts every hook, including ResetStats.
	var nilLC *Lifecycle
	nilLC.ResetStats(3)
	nilLC.Issued()
	nilLC.Used(false)
	nilLC.Evicted()
	nilLC.FillVictim(0)
	nilLC.DemandMiss(0)
	if got := nilLC.Stats(); got != (LifecycleStats{}) {
		t.Errorf("nil lifecycle stats = %+v", got)
	}
}

// TestLifecycleVictimSurvivesReset pins the documented asymmetry: counters
// reset, but the pollution victim table mirrors cache contents and
// survives, so a warmup-era eviction still attributes a measurement-window
// re-miss.
func TestLifecycleVictimSurvivesReset(t *testing.T) {
	lc, _ := newTestLifecycle(t)
	lc.FillVictim(0xC0)
	lc.ResetStats(0)
	lc.DemandMiss(0xC0)
	if st := lc.Stats(); st.Polluting != 1 {
		t.Errorf("polluting = %d, want 1 (victim table must survive reset)", st.Polluting)
	}
}
