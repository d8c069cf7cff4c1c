package workload

import (
	"testing"

	"repro/internal/mem"
)

// TestSealedImageUnchanged pins that sealing the registry images moves
// their pages without changing them: every kernel's sealed image equals a
// fresh build that was never frozen or sealed.
func TestSealedImageUnchanged(t *testing.T) {
	for _, w := range All() {
		_, sealed := w.built()
		if _, fresh := w.build(); !mem.Equal(sealed, fresh) {
			t.Errorf("%s: sealed image differs from a fresh build", w.Name)
		}
	}
}
