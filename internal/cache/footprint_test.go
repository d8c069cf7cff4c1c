package cache

import "testing"

// TestWayFootprint pins what a cache costs per way: 25 bytes (tag, lastUse,
// readyAt, flags), and 33 once SetFeedback adds the load PCs. A 16-core
// CMP's 32 MB LLC holds 524,288 ways, so each byte per way is 0.5 MiB.
func TestWayFootprint(t *testing.T) {
	cfg := Config{Name: "L3", Bytes: 32 << 20, Ways: 16, Latency: 20}
	ways := int64(cfg.Bytes / BlockBytes)
	// The Cache struct itself, and each array's rounding up to whole pages.
	const slack = 64 << 10
	for _, tc := range []struct {
		name     string
		feedback bool
		perWay   int64
	}{
		{"New", false, 25},
		{"New+SetFeedback", true, 33},
	} {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := New(cfg, &fixedLevel{})
				if tc.feedback {
					c.SetFeedback(&recorder{})
				}
			}
		})
		if got, max := r.AllocedBytesPerOp(), tc.perWay*ways+slack; got > max {
			t.Errorf("%s: %d bytes for %d ways (%.1f B/way), want at most %d B/way plus %d",
				tc.name, got, ways, float64(got)/float64(ways), tc.perWay, slack)
		}
	}
}
