// Command bfetch-sim runs one simulation and prints its statistics: a
// workload (or mix) on a chosen prefetcher configuration.
//
// Usage:
//
//	bfetch-sim -workloads mcf -pf bfetch
//	bfetch-sim -workloads mcf,lbm,milc,astar -pf sms -measure 500000
//	bfetch-sim -workloads mcf -obs report.json           # observability report
//	bfetch-sim -workloads mcf -obs - -obstrace pf.trace  # + sampled event trace
//	bfetch-sim -validate-obs report.json                 # schema-check any obs JSON
//	bfetch-sim -workloads mcf -store results/store       # reuse/populate the artifact store
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

func main() {
	var (
		apps     = flag.String("workloads", "mcf", "comma-separated workloads, one per core")
		pf       = flag.String("pf", "bfetch", "prefetcher: none|stride|sms|bfetch|perfect|nextn")
		width    = flag.Int("width", 4, "pipeline width")
		ff       = flag.Uint64("ff", 0, "fast-forward instructions per core, emulated functionally before the cycle core boots")
		warmup   = flag.Uint64("warmup", 100_000, "warmup instructions per core")
		measure  = flag.Uint64("measure", 300_000, "measured instructions per core")
		conf     = flag.Float64("conf", 0.75, "B-Fetch path confidence threshold")
		scale    = flag.Bool("scale", false, "use the scale-out memory system (banked LLC, channeled DRAM) sized for the core count")
		cpistack = flag.Bool("cpistack", false, "attribute every core cycle to a CPI-stack bucket and print the breakdown")
		tsEvery  = flag.Uint64("ts", 0, "sample the metrics registry every N cycles into the obs report's time series (0 disables)")
		storeDir = flag.String("store", "", "durable artifact store directory: answer this run from disk if cached there, write it back otherwise (ignored when tracing)")
		list     = flag.Bool("list", false, "list workloads and exit")

		obsOut     = flag.String("obs", "", "write this run's observability report (bfetch-obs-run/v1 JSON) to this file, '-' for stdout")
		obsTrace   = flag.String("obstrace", "", "dump the sampled prefetch lifecycle trace (binary internal/trace encoding) to this file")
		traceEvery = flag.Uint64("obstrace-every", 64, "keep 1 in N lifecycle events in the trace ring")
		traceCap   = flag.Int("obstrace-cap", 1<<16, "trace ring-buffer capacity in events")

		validate = flag.String("validate-obs", "", "validate an obs JSON document (run report, runs file, or status) and exit")
	)
	flag.Parse()

	if *validate != "" {
		data, err := os.ReadFile(*validate)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bfetch-sim:", err)
			os.Exit(1)
		}
		schema, err := obs.ValidateReport(data)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bfetch-sim: validate:", err)
			os.Exit(1)
		}
		fmt.Printf("%s: valid %s\n", *validate, schema)
		return
	}

	if *list {
		for _, w := range workload.All() {
			tag := "cache-resident"
			if w.MemoryIntensive {
				tag = "memory-intensive"
			}
			fmt.Printf("  %-12s %-9s %-16s %s\n", w.Name, w.Character, tag, w.Description)
		}
		return
	}

	names := strings.Split(*apps, ",")
	cfg := sim.Default(sim.PrefetcherKind(*pf))
	if *scale {
		cfg = sim.DefaultScale(sim.PrefetcherKind(*pf), len(names))
	}
	cfg.CPU = cfg.CPU.WithWidth(*width)
	cfg.BFetch.PathThreshold = *conf
	cfg.CPU.CPIStack = *cpistack
	cfg.TSInterval = *tsEvery
	cfg.Cores = len(names)
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "bfetch-sim:", err)
		os.Exit(1)
	}

	var tr *obs.Trace
	if *obsTrace != "" {
		tr = obs.NewTrace(*traceCap, *traceEvery)
	}
	opts := sim.RunOpts{FastForwardInsts: *ff, WarmupInsts: *warmup, MeasureInsts: *measure}
	job := runner.Multi(cfg, names, opts)
	var res sim.Result
	start := time.Now()
	if *storeDir != "" && tr == nil {
		// Route through the runner so the durable store's two-tier lookup
		// applies: a repeated invocation is answered from disk.
		st, err := store.Open(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bfetch-sim:", err)
			os.Exit(1)
		}
		eng := runner.New(1)
		eng.SetStore(st)
		res, err = eng.Run(job)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bfetch-sim:", err)
			os.Exit(1)
		}
		if m := st.Metrics(); m.Hits > 0 {
			fmt.Fprintf(os.Stderr, "store: answered from %s (no simulation run)\n", *storeDir)
		}
	} else {
		if *storeDir != "" {
			fmt.Fprintln(os.Stderr, "store: -obstrace requested, bypassing the store (traces record live execution)")
		}
		var err error
		res, err = sim.RunTraced(cfg, names, opts, tr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bfetch-sim:", err)
			os.Exit(1)
		}
	}
	wall := time.Since(start)

	fmt.Printf("prefetcher=%s width=%d cores=%d ff=%d warmup=%d measure=%d\n\n",
		*pf, *width, len(names), *ff, *warmup, *measure)
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
			cs.PrefetchIssued, cs.PrefetchDropped, l1.PrefetchUseful, l1.PrefetchUseless)
		if i < len(res.Lifecycle) {
			lc := res.Lifecycle[i]
			fmt.Printf("  pf lifecycle   %d timely, %d late, %d useless-evicted, %d polluting (acc %.2f, cov %.2f, tml %.2f)\n",
				lc.UsefulTimely, lc.UsefulLate, lc.UselessEvicted, lc.Polluting,
				lc.Accuracy(), lc.Coverage(), lc.Timeliness())
		}
		if *cpistack && cs.Cycles > 0 {
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
	if ts := res.TS; ts != nil {
		fmt.Printf("time series: %d rows × %d columns, every %d cycles from cycle %d\n",
			len(ts.Rows), len(ts.Names), ts.Interval, ts.Base)
	}

	if *obsOut != "" {
		if err := writeObsReport(*obsOut, runner.Report(job, res, wall)); err != nil {
			fmt.Fprintln(os.Stderr, "bfetch-sim:", err)
			os.Exit(1)
		}
	}
	if tr != nil {
		if err := dumpTrace(*obsTrace, tr); err != nil {
			fmt.Fprintln(os.Stderr, "bfetch-sim:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d of %d lifecycle events kept)\n", *obsTrace, tr.Kept(), tr.Seen())
	}
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

// dumpTrace writes the sampled ring-buffer trace in the internal/trace
// binary encoding (readable with trace.NewReader).
func dumpTrace(path string, tr *obs.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.Dump(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
