// Command bfetch-sim runs one simulation and prints its statistics: a
// workload (or mix) on a chosen prefetcher configuration.
//
// Usage:
//
//	bfetch-sim -workloads mcf -pf bfetch
//	bfetch-sim -workloads mcf,lbm,milc,astar -pf sms -measure 500000
//	bfetch-sim -workloads mcf -obs report.json      # observability report
//	bfetch-sim -validate-obs report.json            # schema-check any obs JSON
//	bfetch-sim -workloads mcf -store results/store  # reuse/populate the artifact store
//	bfetch-sim -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// options holds the command line's flag values.
type options struct {
	apps, pf            string
	width               int
	ff, warmup, measure uint64
	conf                float64
	scale, cpistack     bool
	storeDir            string
	list                bool
	obsOut, validate    string
}

// defineFlags registers bfetch-sim's flags on fs.
func defineFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.apps, "workloads", "mcf", "comma-separated workloads, one per core")
	fs.StringVar(&o.pf, "pf", "bfetch", "prefetcher: none|stride|sms|bfetch|perfect|nextn|isb|stems")
	fs.IntVar(&o.width, "width", 4, "pipeline width")
	fs.Uint64Var(&o.ff, "ff", 0, "fast-forward instructions per core, emulated functionally before the cycle core boots")
	fs.Uint64Var(&o.warmup, "warmup", 100_000, "warmup instructions per core")
	fs.Uint64Var(&o.measure, "measure", 300_000, "measured instructions per core")
	fs.Float64Var(&o.conf, "conf", 0.75, "B-Fetch path confidence threshold (with -pf bfetch only)")
	fs.BoolVar(&o.scale, "scale", false, "use the scale-out memory system (banked LLC, channeled DRAM) sized for the core count")
	fs.BoolVar(&o.cpistack, "cpistack", false, "attribute every core cycle to a CPI-stack bucket and print the breakdown")
	fs.StringVar(&o.storeDir, "store", "", "durable artifact store directory: answer this run from disk if cached there, write it back otherwise")
	fs.BoolVar(&o.list, "list", false, "list workloads and exit")
	fs.StringVar(&o.obsOut, "obs", "", "write this run's observability report (bfetch-obs-run/v1 JSON) to this file, '-' for stdout")
	fs.StringVar(&o.validate, "validate-obs", "", "validate an obs JSON document (run report, runs file, or status) and exit")
	return o
}

// simConfig builds the configuration the flags select; fs is the flag set
// they were parsed from. It refuses an explicitly set -conf unless -pf is
// bfetch: the threshold is B-Fetch's alone, and any other engine would run
// with the value silently ignored. Validating the result is the caller's.
func (o *options) simConfig(fs *flag.FlagSet) (sim.Config, error) {
	pf := sim.PrefetcherKind(o.pf)
	confSet := false
	fs.Visit(func(f *flag.Flag) { confSet = confSet || f.Name == "conf" })
	if confSet && pf != sim.PFBFetch {
		return sim.Config{}, fmt.Errorf("-conf sets the B-Fetch path confidence threshold and needs -pf bfetch, not -pf %s", o.pf)
	}
	cores := len(strings.Split(o.apps, ","))
	cfg := sim.Default(pf)
	if o.scale {
		cfg = sim.DefaultScale(pf, cores)
	}
	cfg.CPU = cfg.CPU.WithWidth(o.width)
	cfg.BFetch.PathThreshold = o.conf
	cfg.CPU.CPIStack = o.cpistack
	cfg.Cores = cores
	return cfg, nil
}

func main() {
	o := defineFlags(flag.CommandLine)
	flag.Parse()

	if o.validate != "" {
		data, err := os.ReadFile(o.validate)
		if err != nil {
			fatal(err)
		}
		schema, err := obs.ValidateReport(data)
		if err != nil {
			fatal(fmt.Errorf("validate: %w", err))
		}
		fmt.Printf("%s: valid %s\n", o.validate, schema)
		return
	}

	if o.list {
		for _, w := range workload.All() {
			tag := "cache-resident"
			if w.MemoryIntensive {
				tag = "memory-intensive"
			}
			fmt.Printf("  %-12s %-9s %-16s %s\n", w.Name, w.Character, tag, w.Description)
		}
		return
	}

	names := strings.Split(o.apps, ",")
	cfg, err := o.simConfig(flag.CommandLine)
	if err != nil {
		// A usage error, with the flag package's exit status.
		fmt.Fprintln(os.Stderr, "bfetch-sim:", err)
		os.Exit(2)
	}
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}

	opts := sim.RunOpts{FastForwardInsts: o.ff, WarmupInsts: o.warmup, MeasureInsts: o.measure}
	job := runner.Multi(cfg, names, opts)
	eng := runner.New(1)
	if o.storeDir != "" {
		// With a durable store attached, a repeated invocation is answered
		// from disk by the runner's two-tier lookup.
		st, err := store.Open(o.storeDir)
		if err != nil {
			fatal(err)
		}
		eng.SetStore(st)
	}
	start := time.Now()
	res, err := eng.Run(job)
	if err != nil {
		fatal(err)
	}
	wall := time.Since(start)
	if eng.Stats().StoreHits > 0 {
		// A result hit, not a checkpoint hit: a run resumed from a stored
		// checkpoint still simulated.
		fmt.Fprintf(os.Stderr, "store: answered from %s (no simulation run)\n", o.storeDir)
	}

	fmt.Printf("prefetcher=%s width=%d cores=%d ff=%d warmup=%d measure=%d\n\n",
		o.pf, o.width, len(names), o.ff, o.warmup, o.measure)
	for i, name := range names {
		cs := res.Core[i]
		l1 := res.L1D[i]
		fmt.Printf("core %d: %s\n", i, name)
		fmt.Printf("  IPC            %.3f  (%d instructions, %d cycles)\n", res.IPC[i], cs.Committed, cs.Cycles)
		fmt.Printf("  branches       %d committed, %.2f%% mispredicted\n",
			cs.BranchesCommitted, 100*cs.BranchMissRate())
		fmt.Printf("  L1D            %d accesses, %.2f%% miss\n", l1.Accesses, 100*l1.MissRate())
		fmt.Printf("  loads          %d (L1 hit %d / miss %d, forwards %d)\n",
			cs.LoadsCommitted, cs.LoadL1Hits, cs.LoadL1Misses, cs.StoreForwards)
		fmt.Printf("  prefetches     %d issued, %d dropped-resident, %d useful, %d useless\n",
			l1.PrefetchFills, cs.PrefetchDropped, l1.PrefetchUseful, l1.PrefetchUseless)
		if i < len(res.Lifecycle) {
			lc := res.Lifecycle[i]
			fmt.Printf("  pf lifecycle   %d timely, %d late, %d useless-evicted, %d polluting (acc %.2f, cov %.2f, tml %.2f)\n",
				lc.UsefulTimely, lc.UsefulLate, lc.UselessEvicted, lc.Polluting,
				lc.Accuracy(), lc.Coverage(), lc.Timeliness())
		}
		if o.cpistack && cs.Cycles > 0 {
			fmt.Printf("  cpi stack     ")
			for b := obs.CPIBucket(0); b < obs.NumCPIBuckets; b++ {
				if v := cs.CPI[b]; v > 0 {
					fmt.Printf(" %s=%.1f%%", obs.CPIBucketNames[b], 100*float64(v)/float64(cs.Cycles))
				}
			}
			fmt.Println()
		}
		fmt.Println()
	}
	fmt.Printf("LLC: %d accesses, %.2f%% miss\n", res.LLC.Accesses, 100*res.LLC.MissRate())
	fmt.Printf("DRAM: %d demand fills, %d prefetch fills, %d writebacks, %d stall cycles\n",
		res.DRAM.DemandFills, res.DRAM.PrefetchFills, res.DRAM.Writebacks, res.DRAM.StallCycles)

	if o.obsOut != "" {
		if err := writeObsReport(o.obsOut, runner.Report(job, res, wall)); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bfetch-sim:", err)
	os.Exit(1)
}

// writeObsReport writes the run's bfetch-obs-run/v1 document to path ('-'
// for stdout).
func writeObsReport(path string, r obs.RunReport) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}
