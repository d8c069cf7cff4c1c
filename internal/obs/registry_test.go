package obs

import (
	"reflect"
	"testing"
)

func TestRegistryCountersHists(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("e.count")
	h := r.Histogram("c.hist")
	r.Func("d.func", func() uint64 { return 7 })

	c.Inc()
	c.Add(4)
	h.Observe(0)
	h.Observe(5)
	h.Observe(1 << 40) // clamps into the last bucket

	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if h.Count() != 3 {
		t.Errorf("hist count = %d, want 3", h.Count())
	}
	if r.Len() != 3 {
		t.Errorf("Len = %d, want 3", r.Len())
	}

	s := r.Snapshot()
	wantNames := []string{"d.func", "e.count"}
	var gotNames []string
	for _, smp := range s.Samples {
		gotNames = append(gotNames, smp.Name)
	}
	if !reflect.DeepEqual(gotNames, wantNames) {
		t.Errorf("snapshot names = %v, want %v (sorted)", gotNames, wantNames)
	}
	if v, ok := s.Get("e.count"); !ok || v != 5 {
		t.Errorf("Get(e.count) = %d, %v", v, ok)
	}
	if v, ok := s.Get("d.func"); !ok || v != 7 {
		t.Errorf("Get(d.func) = %d, %v", v, ok)
	}
	if _, ok := s.Get("missing"); ok {
		t.Error("Get(missing) succeeded")
	}
	if len(s.Hists) != 1 || s.Hists[0].Count != 3 || s.Hists[0].Sum != 5+(1<<40) {
		t.Errorf("hist sample = %+v", s.Hists)
	}
	if s.Hists[0].Buckets[HistBuckets-1] != 1 {
		t.Error("oversized observation not clamped into last bucket")
	}
}

func TestRegistryReset(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h")
	live := uint64(11)
	r.Func("f", func() uint64 { return live })

	c.Add(10)
	h.Observe(3)
	r.Reset()

	if c.Value() != 0 || h.Count() != 0 {
		t.Errorf("after Reset: counter %d hist %d, want zeros", c.Value(), h.Count())
	}
	// Func collectors read live state owned elsewhere; Reset must not touch it.
	if v, _ := r.Snapshot().Get("f"); v != 11 {
		t.Errorf("func collector after Reset = %d, want 11", v)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.Histogram("x")
}
