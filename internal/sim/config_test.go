package sim

import (
	"math"
	"strings"
	"testing"

	"repro/internal/workload"
)

// TestThreeAppRunNamesLLC: a core count that is not a power of two gives
// the default LLC a set count that is not one either; the run must fail
// with an error naming the L3 instead of panicking in the cache constructor.
func TestThreeAppRunNamesLLC(t *testing.T) {
	_, err := Run(Default(PFBFetch), []string{"mcf", "lbm", "milc"}, RunOpts{MeasureInsts: 1_000})
	if err == nil || !strings.Contains(err.Error(), "L3") {
		t.Errorf("3-app run: got %v, want an error naming L3", err)
	}
}

// TestBadEngineTableFailsRun: a prefetch engine table of the wrong size, or
// a B-Fetch setting under which the engine could never prefetch, must fail
// the run with an error naming the engine's table or setting instead of
// panicking in the engine's constructor or running silently.
func TestBadEngineTableFailsRun(t *testing.T) {
	for _, tc := range []struct {
		kind PrefetcherKind
		edit func(*Config)
		want string
	}{
		{PFSMS, func(c *Config) { c.SMS.PHTEntries = 1000 }, "sms: PHT"},
		{PFSTeMS, func(c *Config) { c.STeMS.RegionBytes = 8192 }, "stems: region"},
		{PFISB, func(c *Config) { c.ISB.StreamLen = 1 }, "isb: "},
		{PFStride, func(c *Config) { c.Stride.Entries = 100 }, "stride entries"},
		{PFBFetch, func(c *Config) { c.BFetch.BrTCEntries = 100 }, "BrTC"},
		{PFBFetch, func(c *Config) { c.BFetch.MHTEntries = 0 }, "MHT"},
		{PFBFetch, func(c *Config) { c.BFetch.FilterEntries = 3 }, "filter"},
		{PFBFetch, func(c *Config) { c.BFetch.PathThreshold = math.NaN() }, "PathThreshold"},
		{PFBFetch, func(c *Config) { c.BFetch.PathThreshold = 1.5 }, "PathThreshold"},
		{PFBFetch, func(c *Config) { c.BFetch.PathThreshold = -1 }, "PathThreshold"},
		{PFBFetch, func(c *Config) { c.BFetch.QueueEntries = 0 }, "QueueEntries"},
		{PFBFetch, func(c *Config) { c.BFetch.QueuePerCycle = 0 }, "QueuePerCycle"},
		{PFBFetch, func(c *Config) { c.BFetch.MaxDepth = 0 }, "MaxDepth"},
		{PFBFetch, func(c *Config) { c.BFetch.MaxDepth = -1 }, "MaxDepth"},
		{"x", func(*Config) {}, `sim: unknown prefetcher "x"`},
		{PFCustom, func(*Config) {}, "sim: custom prefetcher without a Factory"},
	} {
		cfg := Default(tc.kind)
		tc.edit(&cfg)
		_, err := Run(cfg, []string{"gamess"}, RunOpts{MeasureInsts: 1_000})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error naming %q", tc.kind, err, tc.want)
		}
	}
}

// geom decodes one fuzz byte into a size: unit × 2^(b&7) × (1 + b>>6), so
// one value in four has a factor of three and fails a power-of-two check.
func geom(b uint8, unit int) int { return unit << (b & 7) * (1 + int(b>>6)) }

// FuzzConfigValidate: over cache geometries, branch and prefetch engine
// table sizes, B-Fetch path thresholds, core counts and core widths,
// Validate either rejects the configuration or the system assembles and
// runs — never a panic. Sizes stay small so a valid configuration allocates
// little.
func FuzzConfigValidate(f *testing.F) {
	f.Add(uint8(0), uint8(7), uint8(8), uint8(7), uint8(8), uint8(7), uint8(16), uint8(0), uint8(7), uint8(7), uint8(4), uint8(4), uint8(0x1a), uint8(170))
	f.Add(uint8(1), uint8(6), uint8(4), uint8(0x47), uint8(2), uint8(5), uint8(8), uint8(4), uint8(0x47), uint8(6), uint8(2), uint8(6), uint8(0x5a), uint8(255))
	f.Add(uint8(2), uint8(7), uint8(8), uint8(7), uint8(8), uint8(7), uint8(16), uint8(0), uint8(7), uint8(7), uint8(4), uint8(1), uint8(0x23), uint8(10))
	f.Add(uint8(0), uint8(7), uint8(8), uint8(7), uint8(8), uint8(7), uint8(16), uint8(0), uint8(7), uint8(7), uint8(4), uint8(3), uint8(0x3c), uint8(240))
	f.Add(uint8(0), uint8(7), uint8(8), uint8(7), uint8(8), uint8(7), uint8(16), uint8(0), uint8(7), uint8(7), uint8(4), uint8(4), uint8(0x1a), uint8(255))
	kinds := []PrefetcherKind{PFNone, PFStride, PFNextN, PFSMS, PFBFetch, PFISB, PFSTeMS, PFPerfect}
	f.Fuzz(func(t *testing.T, cores, l1, l1w, l2, l2w, llc, llcw, banks, bp, conf, width, kind, pf, th uint8) {
		cfg := Default(kinds[int(kind)%len(kinds)])
		cfg.Cores = int(cores%4) + 1
		cfg.Hier.L1Bytes, cfg.Hier.L1Ways = geom(l1, 64), int(l1w%17)
		cfg.Hier.L2Bytes, cfg.Hier.L2Ways = geom(l2, 256), int(l2w%17)
		cfg.LLCPerCore, cfg.LLCWays = geom(llc, 1024), int(llcw%17)
		cfg.LLCBanks = int(banks % 9)
		cfg.Branch.GlobalEntries = geom(bp, 16)
		cfg.Branch.LocalHistBits = int(bp % 30)
		cfg.Confidence.Entries = geom(conf, 16)
		cfg.CPU = cfg.CPU.WithWidth(int(width % 9))
		// One byte sizes every engine's tables; only the selected engine's
		// are built. Bits 3..5 pick a region of 64 B..8 KB, of which only
		// 128 B..4 KB is valid.
		n := geom(pf, 4)
		cfg.Stride.Entries = n
		cfg.SMS.PHTEntries, cfg.STeMS.PHTEntries = n, n
		cfg.SMS.RegionBytes = 64 << (pf >> 3 & 7)
		cfg.STeMS.RegionBytes = cfg.SMS.RegionBytes
		cfg.ISB.StreamLen = int(pf % 4)
		cfg.BFetch.BrTCEntries, cfg.BFetch.MHTEntries, cfg.BFetch.FilterEntries = n, n/2, n
		// -0.1..1.17 in steps of 1/200, of which 0..1 is valid; 255 is NaN.
		cfg.BFetch.PathThreshold = float64(int(th)-20) / 200
		if th == 255 {
			cfg.BFetch.PathThreshold = math.NaN()
		}
		if err := cfg.Validate(); err != nil {
			t.Log(err)
			return
		}
		apps := make([]workload.Workload, cfg.Cores)
		for i := range apps {
			w, err := workload.ByName("gamess")
			if err != nil {
				t.Fatal(err)
			}
			apps[i] = w
		}
		s, err := New(cfg, apps)
		if err != nil {
			t.Fatalf("valid configuration failed to assemble: %v", err)
		}
		if err := s.Run(200, 200_000); err != nil {
			t.Fatalf("valid configuration failed to run: %v", err)
		}
	})
}
