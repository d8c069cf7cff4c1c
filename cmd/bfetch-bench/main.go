// Command bfetch-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	bfetch-bench -list
//	bfetch-bench -exp fig8
//	bfetch-bench -exp all -out results/
//	bfetch-bench -exp fig9 -warmup 100000 -measure 300000 -mixes 29
//	bfetch-bench -exp all -j 8            # 8 simulations in flight
//	bfetch-bench -exp all -store results/store   # durable artifact cache
//	bfetch-bench -exp all -cpuprofile cpu.pprof
//	bfetch-bench -exp all -http 127.0.0.1:8080   # live /obs, /obs/stream, /debug/pprof/
//
// Each experiment prints its table(s) to stdout; with -out set, CSVs are
// written alongside. Simulation points fan out over -j workers (default
// GOMAXPROCS) and repeated points — e.g. the no-prefetch baseline shared by
// every speedup figure — are simulated once per invocation; the cache
// hit/miss counts are reported per experiment on stderr, followed (where
// /proc/self/status exists) by the process's peak resident set so far.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bfetch-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		expID      = flag.String("exp", "", "experiment id (fig1, fig3, fig7..fig15, tab1, tab2, ablation, or 'all')")
		list       = flag.Bool("list", false, "list experiments and exit")
		outDir     = flag.String("out", "", "directory for CSV output (optional)")
		ff         = flag.Uint64("ff", 1_000_000, "fast-forward instructions per core, emulated functionally (0 disables; each workload's prefix is checkpointed once and restored copy-on-write)")
		warmup     = flag.Uint64("warmup", 100_000, "warmup instructions per core")
		measure    = flag.Uint64("measure", 300_000, "measured instructions per core")
		mixes      = flag.Int("mixes", 29, "number of multiprogrammed mixes")
		workloads  = flag.String("workloads", "", "comma-separated workload subset (default: all 18)")
		quiet      = flag.Bool("q", false, "suppress progress logging")
		jobs       = flag.Int("j", 0, "simulations in flight (0 = GOMAXPROCS)")
		scaleCores = flag.String("scalecores", "", "comma-separated core counts for the scale experiment (default 2,4,8,16,64)")
		storeDir   = flag.String("store", "", "durable artifact store directory: results and checkpoints are read from disk before computing, and written back after (shared across invocations and -j settings)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		httpAddr   = flag.String("http", "", "serve live introspection on this address (/obs status, /obs/stream NDJSON, /debug/pprof/)")
		obsJSON    = flag.String("obsjson", "", "write per-run observability reports (bfetch-obs/v1 JSON) to this file")
		linger     = flag.Duration("linger", 0, "keep the -http endpoint up this long after the last experiment")
	)
	flag.Parse()

	if *list || *expID == "" {
		fmt.Println("experiments:")
		for _, e := range harness.All() {
			fmt.Printf("  %-9s %s\n", e.ID, e.Title)
			fmt.Printf("  %-9s paper: %s\n", "", e.Paper)
		}
		return nil
	}

	if err := checkMixes(*mixes); err != nil {
		return err
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	eng := runner.New(*jobs)
	if *obsJSON != "" {
		eng.SetRunReports(true)
	}
	var dstore *store.Store
	if *storeDir != "" {
		var err error
		dstore, err = store.Open(*storeDir)
		if err != nil {
			return err
		}
		eng.SetStore(dstore)
		fmt.Fprintf(os.Stderr, "store: %s (entries of program %.12s)\n", dstore.Dir(), dstore.Program())
	}

	var curExp atomic.Value // string: experiment the batch loop is inside
	curExp.Store("")
	if *httpAddr != "" {
		hub := obs.NewStreamHub()
		eng.SetStream(hub)
		srv, err := serve(*httpAddr,
			func() obs.Status {
				s := eng.Stats()
				s.Experiment = curExp.Load().(string)
				return s
			},
			hub)
		if err != nil {
			return err
		}
		defer srv.close()
		fmt.Fprintf(os.Stderr, "obs: serving http://%s/obs (stream at /obs/stream)\n", srv.addr())
	}

	params := harness.DefaultParams()
	params.Opts = sim.RunOpts{FastForwardInsts: *ff, WarmupInsts: *warmup, MeasureInsts: *measure}
	params.Mixes = *mixes
	params.Runner = eng
	if *workloads != "" {
		params.Workloads = strings.Split(*workloads, ",")
	}
	if *scaleCores != "" {
		cores, err := parseCores(*scaleCores)
		if err != nil {
			return err
		}
		params.ScaleCores = cores
	}
	if !*quiet {
		params.Log = os.Stderr
	}

	var todo []harness.Experiment
	if *expID == "all" {
		todo = harness.All()
	} else {
		for _, id := range strings.Split(*expID, ",") {
			e, err := harness.ByID(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			todo = append(todo, e)
		}
	}

	var prev obs.Status
	for _, e := range todo {
		start := time.Now()
		curExp.Store(e.ID)
		fmt.Fprintf(os.Stderr, "running %s: %s (%d workers)\n", e.ID, e.Title, eng.Workers())
		tables, err := e.Run(params)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		wall := time.Since(start)
		st := eng.Stats()
		line := fmt.Sprintf("%s finished in %s (%d sims run, cache: %d hits, %d misses; ckpt: %d hits, %d misses)",
			e.ID, wall.Round(time.Millisecond),
			st.Runs-prev.Runs, st.CacheHits-prev.CacheHits, st.CacheMisses-prev.CacheMisses,
			st.CkptHits-prev.CkptHits, st.CkptMisses-prev.CkptMisses)
		if dstore != nil {
			line += storeSummary(st, prev)
		}
		fmt.Fprintln(os.Stderr, line)
		if tput := throughputLine(e.ID, st, prev, wall); tput != "" {
			fmt.Fprintln(os.Stderr, tput)
		}
		if kib, ok := peakRSS(); ok {
			fmt.Fprintf(os.Stderr, "%s peak RSS %.1f MiB (process VmHWM so far)\n", e.ID, float64(kib)/1024)
		}
		prev = st
		for i, t := range tables {
			fmt.Println(t)
			if *outDir != "" {
				if err := os.MkdirAll(*outDir, 0o755); err != nil {
					return err
				}
				name := e.ID
				if len(tables) > 1 {
					name = fmt.Sprintf("%s_%d", e.ID, i+1)
				}
				path := filepath.Join(*outDir, name+".csv")
				if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "wrote %s\n", path)
			}
		}
	}
	if st := eng.Stats(); st.CacheHits > 0 || len(todo) > 1 || dstore != nil {
		line := fmt.Sprintf("total: %d sims run, cache: %d hits, %d misses; ckpt: %d hits, %d misses; %d insts emulated",
			st.Runs, st.CacheHits, st.CacheMisses, st.CkptHits, st.CkptMisses, st.EmuInsts)
		if dstore != nil {
			line += storeSummary(st, obs.Status{}) + fmt.Sprintf(", %d KB read in %s", st.StoreBytesRead/1024,
				time.Duration(st.StoreReadSeconds*float64(time.Second)).Round(time.Millisecond))
		}
		fmt.Fprintln(os.Stderr, line)
	}
	curExp.Store("")
	if *obsJSON != "" {
		f := obs.RunsFile{
			Schema:    obs.SchemaRuns,
			Generated: time.Now().UTC().Format(time.RFC3339),
			Runs:      eng.RunReports(),
		}
		data, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*obsJSON, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d run reports)\n", *obsJSON, len(f.Runs))
	}
	if *httpAddr != "" && *linger > 0 {
		fmt.Fprintf(os.Stderr, "obs: lingering %s for scrapes\n", *linger)
		time.Sleep(*linger)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return nil
}

// storeSummary formats the store lookups (results and checkpoints) made
// between prev and st, naming failed write-backs when there were any.
func storeSummary(st, prev obs.Status) string {
	s := fmt.Sprintf("; store: %d hits, %d misses",
		st.StoreHits+st.StoreCkptHits-prev.StoreHits-prev.StoreCkptHits,
		st.StoreMisses+st.StoreCkptMisses-prev.StoreMisses-prev.StoreCkptMisses)
	if n := st.StoreWriteErrs - prev.StoreWriteErrs; n > 0 {
		s += fmt.Sprintf(", %d write errors", n)
	}
	return s
}

// throughputLine formats the simulated throughput of the runs an experiment
// executed between prev and st over its wall time, or "" when it simulated
// nothing (every result came from the memo or the store). It is a line of
// its own because scripts anchor the end of the "finished in" line.
func throughputLine(id string, st, prev obs.Status, wall time.Duration) string {
	cycles, insts := st.SimCycles-prev.SimCycles, st.SimInsts-prev.SimInsts
	if cycles == 0 {
		return ""
	}
	secs := wall.Seconds()
	return fmt.Sprintf("%s simulated %.1f kcycles/s, %.1f kinst/s (%d sims)",
		id, float64(cycles)/secs/1e3, float64(insts)/secs/1e3, st.Runs-prev.Runs)
}

// parseCores parses the -scalecores list: comma-separated positive core
// counts, each entry a whole decimal number (surrounding spaces allowed).
func parseCores(list string) ([]int, error) {
	var cores []int
	for _, s := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -scalecores entry %q", s)
		}
		if err := sim.DefaultScale(sim.PFNone, n).Validate(); err != nil {
			return nil, fmt.Errorf("-scalecores %d: %w", n, err)
		}
		cores = append(cores, n)
	}
	return cores, nil
}

// checkMixes rejects a -mixes count below 1, which would select no mix.
func checkMixes(n int) error {
	if n < 1 {
		return fmt.Errorf("bad -mixes %d: want at least 1", n)
	}
	return nil
}

// peakRSS returns the process's peak resident set in KiB, the VmHWM line of
// /proc/self/status; false where that file is unavailable.
func peakRSS() (uint64, bool) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	return parseVmHWM(string(data))
}

// parseVmHWM reads the "VmHWM:  <n> kB" line of a /proc/<pid>/status file.
func parseVmHWM(status string) (uint64, bool) {
	for _, line := range strings.Split(status, "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kib, err := strconv.ParseUint(f[1], 10, 64)
			return kib, err == nil
		}
	}
	return 0, false
}
