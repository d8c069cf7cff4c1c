// Package determinism holds known-bad fixtures for the determinism analyzer.
// Type-checked by the golden tests, never built.
package determinism

import (
	"fmt"
	"math/rand"
	"time"
)

func badGlobalRand(n int) int {
	return rand.Intn(n) // want "global math/rand.Intn draws from the shared unseeded source"
}

func badShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { // want "global math/rand.Shuffle"
		xs[i], xs[j] = xs[j], xs[i]
	})
}

func badWallClock() int64 {
	t := time.Now() // want "time.Now reads the wall clock"
	return t.UnixNano()
}

func badMapOrder(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want "inside a map range publishes iteration order"
	}
	return out
}

func badMapPrint(m map[string]int) {
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v) // want "fmt.Printf inside a map range emits output in iteration order"
	}
}

// badOrderInsensitive publishes map order even though its caller only sums
// the result: there is no hatch, so the sum has to range over the map.
func badOrderInsensitive(m map[string]int) []int {
	var totals []int
	for _, v := range m {
		totals = append(totals, v) // want "inside a map range publishes iteration order"
	}
	return totals
}
