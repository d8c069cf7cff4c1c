package determinism

import (
	"math/rand"
	"sort"
	"time"
)

// goodLocalRand is the required idiom: a locally seeded generator.
func goodLocalRand(seed int64, n int) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(n)
}

// goodSortedKeys is the sanctioned collect-keys-then-sort idiom: the append
// inside the map range is allowed because the slice is sorted before use.
func goodSortedKeys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// goodWallClock only feeds elapsed-time stats and says so.
func goodWallClock() time.Duration {
	start := time.Now()      //bfetch:wallclock elapsed-time logging only
	return time.Since(start) //bfetch:wallclock
}

// goodSliceRange ranges over a slice, not a map: no order hazard.
func goodSliceRange(xs []string) []string {
	var out []string
	for _, x := range xs {
		out = append(out, x)
	}
	return out
}
