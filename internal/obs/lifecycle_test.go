package obs

import "testing"

// TestLifecycleCoverage checks the three prefetch-quality ratios on a
// hand-built breakdown, and that an empty window reads 0, not NaN.
func TestLifecycleCoverage(t *testing.T) {
	// 3 timely and 1 late prefetch of 8 issued, against 9 remaining demand
	// misses: coverage 3/12, accuracy 4/8, timeliness 3/4.
	st := LifecycleStats{Issued: 8, UsefulTimely: 3, UsefulLate: 1, DemandMisses: 9}
	if cov := st.Coverage(); cov != 0.25 {
		t.Errorf("Coverage = %v, want 0.25", cov)
	}
	if acc := st.Accuracy(); acc != 0.5 {
		t.Errorf("Accuracy = %v, want 0.5", acc)
	}
	if tml := st.Timeliness(); tml != 0.75 {
		t.Errorf("Timeliness = %v, want 0.75", tml)
	}
	var empty LifecycleStats
	if empty.Coverage() != 0 || empty.Accuracy() != 0 || empty.Timeliness() != 0 {
		t.Errorf("empty window ratios = %v, %v, %v, want 0", empty.Coverage(), empty.Accuracy(), empty.Timeliness())
	}
}

// TestLifecycleTimelyVsLate checks how the breakdown weighs a timely against
// a late prefetch: both are useful and count toward accuracy, but only the
// timely one counts toward timeliness and coverage, since the demand still
// waited on the late fill.
func TestLifecycleTimelyVsLate(t *testing.T) {
	st := LifecycleStats{Issued: 2, UsefulTimely: 1, UsefulLate: 1, DemandMisses: 1}
	if st.Useful() != 2 {
		t.Errorf("Useful = %d, want 2", st.Useful())
	}
	if acc := st.Accuracy(); acc != 1.0 {
		t.Errorf("Accuracy = %v, want 1", acc)
	}
	if tml := st.Timeliness(); tml != 0.5 {
		t.Errorf("Timeliness = %v, want 0.5", tml)
	}
	if cov := st.Coverage(); cov != 0.5 {
		t.Errorf("Coverage = %v, want 0.5", cov)
	}
}

// TestLifecycleUselessVsPolluting checks that a prefetch evicted untouched
// (useless) and a fill that displaced a block the program still needed
// (polluting) stay separate through the cross-core sum Finalize takes, and
// that neither counts as useful.
func TestLifecycleUselessVsPolluting(t *testing.T) {
	r := RunReport{PerCore: []LifecycleStats{
		{Issued: 1, UselessEvicted: 1, DemandMisses: 1},
		{Issued: 1, Polluting: 1, DemandMisses: 2},
	}}
	r.Finalize()
	want := LifecycleStats{Issued: 2, UselessEvicted: 1, Polluting: 1, DemandMisses: 3}
	if r.Lifecycle != want {
		t.Errorf("aggregate = %+v, want %+v", r.Lifecycle, want)
	}
	if r.Lifecycle.Useful() != 0 || r.Accuracy != 0 || r.Coverage != 0 {
		t.Errorf("useful %d, accuracy %v, coverage %v, want all 0",
			r.Lifecycle.Useful(), r.Accuracy, r.Coverage)
	}
}
