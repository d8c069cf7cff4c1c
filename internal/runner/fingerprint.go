package runner

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// Fingerprint derives the canonical cache key of one simulation point: a
// stable serialization of the configuration, the applications, and the
// measurement protocol. Two jobs with equal fingerprints would produce
// bit-identical Results, because every simulation is a pure function of
// these three inputs (workload builds are deterministic and systems share
// no mutable state).
//
// The second return value reports whether the job is cacheable at all:
// configurations carrying a custom prefetcher Factory are not, since a
// closure's identity says nothing about its behaviour — two distinct
// closures may differ while sharing an address, so such jobs always
// simulate.
//
// The serialization uses %#v over the Factory-stripped Config, which is
// deterministic here: Config and every nested config struct hold only
// scalars and strings (no maps, whose iteration order would wobble). Keys
// are only compared within one build of the program (the durable store
// keys its entries by the running executable), so Go-syntax stability
// across versions is not required.
func Fingerprint(cfg sim.Config, apps []string, opts sim.RunOpts) (string, bool) {
	if cfg.Factory != nil {
		return "", false
	}
	// sim.Run normalizes Cores to the application count; mirror that so a
	// caller-set Cores value cannot split otherwise-identical points.
	cfg.Cores = len(apps)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%#v|%q|%#v", cfg, apps, opts)
	return sb.String(), true
}
