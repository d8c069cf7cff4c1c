package workload

import "testing"

// TestSealedFingerprintUnchanged pins that sealing the registry images
// moves their pages without changing them: every kernel's Fingerprint,
// which the durable store keys checkpoints by, equals the fingerprint of a
// fresh build that was never frozen or sealed.
func TestSealedFingerprintUnchanged(t *testing.T) {
	for _, w := range All() {
		if got, want := w.Fingerprint(), fingerprint(w.build()); got != want {
			t.Errorf("%s: sealed fingerprint %s, fresh build %s", w.Name, got, want)
		}
	}
}
