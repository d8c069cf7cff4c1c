package main

import (
	"flag"
	"io"
	"strings"
	"testing"

	"repro/internal/sim"
)

// parse runs args through a fresh copy of bfetch-sim's flag set and builds
// the configuration they select.
func parse(t *testing.T, args ...string) (sim.Config, error) {
	t.Helper()
	fs := flag.NewFlagSet("bfetch-sim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := defineFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return o.simConfig(fs)
}

// TestConfRequiresBFetch pins that -conf is B-Fetch's flag: set explicitly
// with any other engine it is refused, naming both flags, instead of being
// silently ignored. The default threshold rides along with every engine.
func TestConfRequiresBFetch(t *testing.T) {
	for _, pf := range []string{"sms", "none", "stride", "stems"} {
		_, err := parse(t, "-pf", pf, "-conf", "7")
		if err == nil || !strings.Contains(err.Error(), "-conf") || !strings.Contains(err.Error(), "-pf "+pf) {
			t.Errorf("-pf %s -conf 7: err = %v, want a refusal naming -conf and -pf", pf, err)
		}
		if _, err := parse(t, "-pf", pf); err != nil {
			t.Errorf("-pf %s without -conf: %v", pf, err)
		}
	}

	cfg, err := parse(t, "-pf", "bfetch", "-conf", "0.5", "-workloads", "mcf,lbm")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.BFetch.PathThreshold != 0.5 || cfg.Cores != 2 || cfg.Prefetcher != sim.PFBFetch {
		t.Errorf("-pf bfetch -conf 0.5: threshold %v, cores %d, engine %s", cfg.BFetch.PathThreshold, cfg.Cores, cfg.Prefetcher)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("-pf bfetch -conf 0.5 does not validate: %v", err)
	}

	// An out-of-range threshold with B-Fetch is left to Validate.
	cfg, err = parse(t, "-conf", "7")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Validate() == nil {
		t.Error("-pf bfetch -conf 7 validates")
	}
}

// TestWidthAboveROBRefused pins that a -width above the ROB size fails
// validation, naming both, instead of building a core whose 4×width fetch
// queue exhausts host memory. It builds configurations only: no core is
// allocated and nothing is simulated.
func TestWidthAboveROBRefused(t *testing.T) {
	for _, w := range []string{"193", "100000000"} {
		cfg, err := parse(t, "-width", w)
		if err != nil {
			t.Fatal(err)
		}
		err = cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), "Width "+w) || !strings.Contains(err.Error(), "ROBEntries 192") {
			t.Errorf("-width %s: Validate = %v, want an error naming Width and ROBEntries", w, err)
		}
	}
	cfg, err := parse(t, "-width", "192")
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("-width 192 (the ROB size): %v", err)
	}
}
