package cache

// Per-load CPI attribution. A demand load that carries a *LoadClass through
// the hierarchy gets it annotated with the level that serviced the fill and
// the cycles the request spent queued at each structural hazard on the way
// (LLC bank port, LLC MSHR file, DRAM channel). The core's cycle-attribution
// stack (internal/obs CPIStack, charged from internal/cpu) replays those
// annotations as a piecewise walk over the load's head-of-ROB stall.
//
// Annotation timing. Every level, shared ones included, is accessed
// synchronously, so the class is complete when Access returns; attribution
// reads it only at cycles after the issuing one.

// Load serving levels, deepest level that supplied the block.
const (
	LoadLevelL1 uint8 = iota
	LoadLevelL2
	LoadLevelLLC
	LoadLevelDRAM
)

// LoadClass is one demand load's attribution record. Queue waits are
// accumulated (a request can cross several queued structures); the level is
// last-writer-wins down the recursion, so it names the deepest level touched.
type LoadClass struct {
	Level  uint8  // Load serving level (LoadLevel*)
	BankQ  uint64 // cycles waiting for the LLC bank port
	MSHRQ  uint64 // cycles waiting for a free LLC MSHR
	ChanQ  uint64 // cycles waiting for a DRAM channel (bus + in-flight slot)
	PFLate bool   // merged with an in-flight prefetch fill (late, partially hidden)
}

// classLevelOf maps a cache's configured name to its attribution level.
// Private caches are named L1D/L2 by NewHierarchy; anything else (the shared
// "L3", ad-hoc test caches) classifies as the shared LLC level.
func classLevelOf(name string) uint8 {
	switch name {
	case "L1D":
		return LoadLevelL1
	case "L2":
		return LoadLevelL2
	}
	return LoadLevelLLC
}
