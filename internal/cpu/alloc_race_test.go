//go:build race

package cpu

// raceEnabled gates the zero-allocation assertions: the race detector's
// instrumentation allocates on paths that are allocation-free in a normal
// build, so allocation counts are meaningless under -race.
const raceEnabled = true
