package obs

import (
	"reflect"
	"testing"
)

// TestRegistrySnapshot checks that a snapshot lists every collector sorted
// by name, that Get finds them, and that each collector is read live at
// snapshot time rather than at registration.
func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	live := uint64(3)
	r.Func("e.live", func() uint64 { return live })
	r.Func("d.const", func() uint64 { return 7 })

	live = 5
	s := r.Snapshot()
	wantNames := []string{"d.const", "e.live"}
	var gotNames []string
	for _, smp := range s.Samples {
		gotNames = append(gotNames, smp.Name)
	}
	if !reflect.DeepEqual(gotNames, wantNames) {
		t.Errorf("snapshot names = %v, want %v (sorted)", gotNames, wantNames)
	}
	if v, ok := s.Get("e.live"); !ok || v != 5 {
		t.Errorf("Get(e.live) = %d, %v, want 5 (read at snapshot time)", v, ok)
	}
	if v, ok := s.Get("d.const"); !ok || v != 7 {
		t.Errorf("Get(d.const) = %d, %v", v, ok)
	}
	if _, ok := s.Get("missing"); ok {
		t.Error("Get(missing) succeeded")
	}

	live = 9
	if v, _ := r.Snapshot().Get("e.live"); v != 9 {
		t.Errorf("second snapshot reads %d, want 9", v)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Func("x", func() uint64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.Func("x", func() uint64 { return 1 })
}
