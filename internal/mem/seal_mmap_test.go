//go:build linux || darwin

package mem

import (
	"runtime/debug"
	"testing"
)

// TestSealedPagesFaultOnWrite pins the mprotect guarantee: a store that
// bypasses copy-on-write and lands on a sealed page faults instead of
// silently corrupting every fork.
func TestSealedPagesFaultOnWrite(t *testing.T) {
	m := sealImage()
	m.Seal()
	if !m.sealed {
		t.Fatal("Seal fell back to the heap")
	}
	p := m.ro[0x1000_0000/PageBytes]
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if recover() == nil {
			t.Error("a store into a sealed page did not fault")
		}
	}()
	p[0] = 1
}
