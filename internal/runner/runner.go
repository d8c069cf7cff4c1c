// Package runner executes batches of independent simulations across a
// worker pool, with a memoizing run-cache on top.
//
// The paper's evaluation is hundreds of fully independent simulation points
// (18 kernels × several prefetcher configs × sensitivity sweeps), and many
// points repeat across figures — every speedup figure divides by the same
// no-prefetch baseline. The Engine exploits both properties: jobs fan out
// over GOMAXPROCS workers, and a fingerprint-keyed cache ensures each
// distinct (config, workload, protocol) point simulates exactly once per
// Engine lifetime, with duplicate in-flight submissions coalesced
// singleflight-style. Results are assembled in submission order, so batch
// output is byte-identical regardless of worker count or completion order.
//
// Jobs whose protocol includes a fast-forward additionally share a
// checkpoint cache: the functional prefix of each (workload, FFInsts) pair
// is emulated exactly once per Engine lifetime (singleflight, like the
// run-cache) and every simulation of that workload boots from a
// copy-on-write restore of the cached checkpoint — however many prefetcher
// kinds, depths or bandwidth points sweep over it. Restored runs are
// bit-identical to inline fast-forwarding (pinned by TestCheckpointedRunEquivalence).
package runner

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ckpt"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
)

// Job is one simulation point: a system configuration running the named
// applications (one per core) under the given measurement protocol.
type Job struct {
	Cfg  sim.Config
	Apps []string
	Opts sim.RunOpts
}

// Solo is a single-core job running one application alone.
func Solo(cfg sim.Config, app string, opts sim.RunOpts) Job {
	return Job{Cfg: cfg, Apps: []string{app}, Opts: opts}
}

// Multi is a CMP job running one application per core.
func Multi(cfg sim.Config, apps []string, opts sim.RunOpts) Job {
	return Job{Cfg: cfg, Apps: apps, Opts: opts}
}

// Outcome is one job's result; exactly one of Result/Err is meaningful.
type Outcome struct {
	Result sim.Result
	Err    error
}

// Stats counts the Engine's cache and execution activity.
type Stats struct {
	Hits   uint64 // jobs answered from the cache (or coalesced in flight)
	Misses uint64 // cacheable jobs that had to simulate
	Runs   uint64 // simulations actually executed (misses + uncacheable)

	// Checkpoint-cache accounting for fast-forward protocols: each
	// (workload, FFInsts) prefix is emulated once (a miss); every further
	// simulation needing it restores copy-on-write (a hit).
	CkptHits   uint64
	CkptMisses uint64

	// Durable-store accounting (zero unless a store is attached with
	// SetStore). A store hit replaces a simulation (StoreHits) or a
	// checkpoint emulation (StoreCkptHits) with a disk read; it counts
	// here and in neither the in-memory hit nor miss columns (it was not
	// in memory, and nothing was computed). Misses are disk-tier lookups
	// that fell through to compute — the computed artifact is written back.
	StoreHits       uint64
	StoreMisses     uint64
	StoreCkptHits   uint64
	StoreCkptMisses uint64

	// Simulation throughput accounting, summed over executed runs (cache
	// hits contribute nothing — no simulation happened). Cycles and
	// instructions cover the measured window of every core.
	SimCycles uint64        // core-cycles simulated
	SimInsts  uint64        // instructions committed
	SimTime   time.Duration // wall time spent inside sim.Run

	// EmuInsts counts functionally emulated instructions: fast-forward
	// prefixes executed for checkpoint-cache misses, plus any profile work
	// reported via AddEmuInsts (the emulator-driven characterization
	// experiments).
	EmuInsts uint64
}

// Engine schedules simulation jobs over a bounded worker pool and memoizes
// their results. The zero value is not usable; construct with New. An
// Engine is safe for concurrent use and needs no shutdown: workers live
// only for the duration of each RunAll call.
type Engine struct {
	workers int
	noCache bool
	store   *store.Store // durable second tier; nil = memory-only

	// Lock discipline: the Engine's mutexes guard disjoint state and are
	// never held together in steady state; if a path ever must nest them,
	// logMu is the innermost leaf — nothing is acquired under it.
	//
	//bfetch:lockorder Engine.mu < Engine.logMu
	//bfetch:lockorder Engine.ckMu < Engine.logMu
	//bfetch:lockorder Engine.repMu < Engine.logMu

	logMu sync.Mutex
	log   io.Writer

	mu      sync.Mutex
	entries map[string]*entry

	ckMu      sync.Mutex
	ckEntries map[string]*ckptEntry

	hits, misses, runs  atomic.Uint64
	ckHits, ckMisses    atomic.Uint64
	stHits, stMisses    atomic.Uint64
	stCkHits, stCkMiss  atomic.Uint64
	simCycles, simInsts atomic.Uint64
	emuInsts            atomic.Uint64
	simNanos            atomic.Int64

	// stream, when set, receives live NDJSON events: a progress event per
	// finished job, and a run summary plus time-series rows per executed
	// simulation. Set before submitting jobs; a nil hub publishes nothing.
	stream *obs.StreamHub

	// Batch progress, for live introspection: jobs submitted through
	// RunAll/Run and jobs finished (from cache or simulation).
	jobsTotal, jobsDone atomic.Uint64

	repMu       sync.Mutex
	keepReports bool
	reports     []obs.RunReport
}

// entry is one memoized simulation point; done closes once res/err are set,
// coalescing concurrent duplicate submissions onto a single execution.
type entry struct {
	done chan struct{}
	res  sim.Result
	err  error
}

// ckptEntry is one memoized fast-forward checkpoint, singleflight like entry.
type ckptEntry struct {
	done chan struct{}
	cp   *ckpt.Checkpoint
	err  error
}

// New returns a parallel Engine running up to workers simulations at once;
// workers <= 0 selects GOMAXPROCS.
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		workers:   workers,
		entries:   make(map[string]*entry),
		ckEntries: make(map[string]*ckptEntry),
	}
}

// Workers reports the pool size.
func (e *Engine) Workers() int { return e.workers }

// SetCache enables or disables result memoization (enabled by default).
// Disabling does not drop already-cached results; it only stops lookups
// and insertions.
func (e *Engine) SetCache(on bool) {
	if !on && !e.noCache {
		e.mu.Lock()
		retained := len(e.entries)
		e.mu.Unlock()
		if retained > 0 {
			e.logf("runner: run-cache disabled; %d cached results retained but bypassed", retained)
		}
	}
	e.noCache = !on
}

// SetStore attaches a durable on-disk store (internal/store) as the second
// tier of the lookup: memory singleflight → disk store → compute, with
// computed results and checkpoints written back. Attach before submitting
// jobs; a nil store detaches. Store failures (unreadable entries, write
// errors) are logged and absorbed — the disk tier can only make runs
// cheaper, never wronger, because entries are keyed by the same fingerprint
// that guarantees byte-identical results and validated end-to-end on read.
func (e *Engine) SetStore(s *store.Store) { e.store = s }

// Store returns the attached durable store, or nil.
func (e *Engine) Store() *store.Store { return e.store }

// SetRunReports enables collection of one obs.RunReport per executed
// simulation (cache hits re-simulate nothing and contribute none). Off by
// default — reports retain full metrics snapshots.
func (e *Engine) SetRunReports(on bool) {
	e.repMu.Lock()
	e.keepReports = on
	if !on {
		e.reports = nil
	}
	e.repMu.Unlock()
}

// RunReports returns the collected reports, in completion order (which
// varies with scheduling; consumers needing determinism sort or key them).
func (e *Engine) RunReports() []obs.RunReport {
	e.repMu.Lock()
	defer e.repMu.Unlock()
	out := make([]obs.RunReport, len(e.reports))
	copy(out, e.reports)
	return out
}

// Progress reports jobs finished and jobs submitted — the run-queue gauge
// the live introspection endpoint polls.
func (e *Engine) Progress() (done, total uint64) {
	return e.jobsDone.Load(), e.jobsTotal.Load()
}

// SetStream attaches a live event hub: each finished job publishes a
// progress event, and each executed simulation publishes a run summary
// followed by its interval time-series rows. Attach before submitting jobs;
// nil detaches. Publishing is non-blocking (the hub drops events to slow
// subscribers), so streaming never back-pressures the batch.
func (e *Engine) SetStream(h *obs.StreamHub) { e.stream = h }

// SetLog directs per-job progress lines to w (nil disables). Writes are
// serialized internally, so any Writer is acceptable.
func (e *Engine) SetLog(w io.Writer) {
	e.logMu.Lock()
	e.log = w
	e.logMu.Unlock()
}

// Stats returns a snapshot of the cache and throughput counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Hits: e.hits.Load(), Misses: e.misses.Load(), Runs: e.runs.Load(),
		CkptHits: e.ckHits.Load(), CkptMisses: e.ckMisses.Load(),
		StoreHits: e.stHits.Load(), StoreMisses: e.stMisses.Load(),
		StoreCkptHits: e.stCkHits.Load(), StoreCkptMisses: e.stCkMiss.Load(),
		SimCycles: e.simCycles.Load(), SimInsts: e.simInsts.Load(),
		SimTime:  time.Duration(e.simNanos.Load()),
		EmuInsts: e.emuInsts.Load(),
	}
}

// AddEmuInsts reports functionally emulated instructions executed outside
// the engine's own fast-forward path — the characterization experiments
// (Figures 3 and 7) drive the emulator directly through Map and account for
// their work here so throughput records show no degenerate zero rows.
func (e *Engine) AddEmuInsts(n uint64) { e.emuInsts.Add(n) }

// Run executes one job (through the cache).
func (e *Engine) Run(job Job) (sim.Result, error) {
	o := e.runJob(job)
	return o.Result, o.Err
}

// RunAll executes the batch and returns one Outcome per job, in job order.
// Identical jobs — within the batch or vs. earlier batches — simulate once.
// At batch end a cache hit-rate summary is logged (when a log is attached).
func (e *Engine) RunAll(jobs []Job) []Outcome {
	before := e.Stats()
	e.jobsTotal.Add(uint64(len(jobs)))
	out := make([]Outcome, len(jobs))
	if e.workers == 1 || len(jobs) <= 1 {
		for i, j := range jobs {
			out[i] = e.runJob(j)
		}
	} else {
		e.fanOut(len(jobs), func(i int) { out[i] = e.runJob(jobs[i]) })
	}
	e.logBatch(len(jobs), before, e.Stats())
	return out
}

// logBatch emits the batch-end cache summary: how the run- and
// checkpoint-caches performed over this batch alone.
func (e *Engine) logBatch(jobs int, before, after Stats) {
	hits := after.Hits - before.Hits
	misses := after.Misses - before.Misses
	rate := 0.0
	if hits+misses > 0 {
		rate = 100 * float64(hits) / float64(hits+misses)
	}
	stHits := after.StoreHits - before.StoreHits
	stMisses := after.StoreMisses - before.StoreMisses
	bypassed := uint64(jobs) - hits - misses - stHits
	line := fmt.Sprintf("runner: batch of %d done: run-cache %d hits / %d misses (%.0f%% hit rate), %d bypassed; ckpt %d hits / %d misses",
		jobs, hits, misses, rate, bypassed,
		after.CkptHits-before.CkptHits, after.CkptMisses-before.CkptMisses)
	if e.store != nil {
		m := e.store.Metrics()
		line += fmt.Sprintf("; store %d hits / %d misses (+ckpt %d/%d; %d KB read in %s)",
			stHits, stMisses,
			after.StoreCkptHits-before.StoreCkptHits, after.StoreCkptMisses-before.StoreCkptMisses,
			m.BytesRead>>10, m.ReadTime.Round(time.Millisecond))
	}
	e.logf("%s", line)
}

// Map runs fn(0..n-1) across the pool and returns the lowest-index error.
// It is the general-purpose fan-out for experiment work that is not a plain
// sim run (functional profiles, instrumented runs); results must be written
// into index-addressed slots by fn, which keeps assembly deterministic.
func (e *Engine) Map(n int, fn func(i int) error) error {
	errs := make([]error, n)
	if e.workers == 1 || n <= 1 {
		for i := 0; i < n; i++ {
			errs[i] = fn(i)
		}
	} else {
		e.fanOut(n, func(i int) { errs[i] = fn(i) })
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// fanOut applies fn to every index using up to e.workers goroutines.
func (e *Engine) fanOut(n int, fn func(i int)) {
	workers := e.workers
	if workers > n {
		workers = n
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// runJob executes one job through the cache. A waiter blocking on an
// in-flight entry cannot deadlock: entries never depend on one another, so
// the computing worker always makes progress.
func (e *Engine) runJob(j Job) Outcome {
	defer func() {
		done := e.jobsDone.Add(1)
		if e.stream != nil {
			e.stream.Publish(obs.StreamProgress{Event: "progress", JobsDone: done, JobsTotal: e.jobsTotal.Load()})
		}
	}()
	key, cacheable := Fingerprint(j.Cfg, j.Apps, j.Opts)
	if !cacheable || e.noCache {
		if e.noCache {
			e.logf("runner: run-cache bypass (cache disabled): %s %v", j.Cfg.Prefetcher, j.Apps)
		} else {
			e.logf("runner: run-cache bypass (unfingerprintable config): %s %v", j.Cfg.Prefetcher, j.Apps)
		}
		return e.execute(j)
	}
	e.mu.Lock()
	ent, found := e.entries[key]
	if !found {
		ent = &entry{done: make(chan struct{})}
		e.entries[key] = ent
		e.mu.Unlock()
		// Second tier: the durable store. A validated entry carries the
		// byte-identical result this job would compute (same fingerprint,
		// same schema), so it answers the job and seeds the memory tier
		// without simulating anything.
		if e.store != nil {
			if res, ok := e.store.GetResult(key); ok {
				ent.res = res
				close(ent.done)
				e.stHits.Add(1)
				e.logf("runner: %-8s %v from store", j.Cfg.Prefetcher, j.Apps)
				return Outcome{Result: res}
			}
			e.stMisses.Add(1)
		}
		o := e.execute(j)
		ent.res, ent.err = o.Result, o.Err
		close(ent.done)
		e.misses.Add(1)
		if e.store != nil && o.Err == nil {
			if err := e.store.PutResult(key, o.Result); err != nil {
				e.logf("runner: store write-back failed (continuing): %v", err)
			}
		}
		return o
	}
	e.mu.Unlock()
	<-ent.done
	e.hits.Add(1)
	return Outcome{Result: ent.res, Err: ent.err}
}

// execute performs the actual simulation. Fast-forward protocols boot from
// the engine's checkpoint cache so each workload's prefix is emulated once;
// with the cache disabled (SetCache(false)) the fast-forward runs inline
// per simulation instead — bit-identical either way.
func (e *Engine) execute(j Job) Outcome {
	start := time.Now() //bfetch:wallclock per-run elapsed time, logged only
	var res sim.Result
	var err error
	if ff := j.Opts.FastForwardInsts; ff > 0 && !e.noCache {
		var cps []*ckpt.Checkpoint
		if cps, err = e.checkpoints(j.Apps, ff); err == nil {
			res, err = sim.RunCheckpointed(j.Cfg, cps, j.Opts)
		}
	} else {
		res, err = sim.Run(j.Cfg, j.Apps, j.Opts)
	}
	elapsed := time.Since(start) //bfetch:wallclock feeds simNanos throughput stats
	e.runs.Add(1)
	e.simNanos.Add(int64(elapsed))
	if err == nil {
		var cycles, insts uint64
		for _, cs := range res.Core {
			cycles += cs.Cycles
			insts += cs.Committed
		}
		e.simCycles.Add(cycles)
		e.simInsts.Add(insts)
		e.report(j, res, insts, elapsed)
		e.publishRun(j, res, insts, elapsed)
	}
	e.logf("runner: %-8s %v done in %s", j.Cfg.Prefetcher, j.Apps,
		elapsed.Round(time.Millisecond))
	return Outcome{Result: res, Err: err}
}

// report records one executed run's observability document, if collection
// is enabled.
func (e *Engine) report(j Job, res sim.Result, insts uint64, elapsed time.Duration) {
	e.repMu.Lock()
	defer e.repMu.Unlock()
	if !e.keepReports {
		return
	}
	r := obs.RunReport{
		Engine:      string(j.Cfg.Prefetcher),
		Apps:        append([]string(nil), j.Apps...),
		Cycles:      res.Cycles,
		Insts:       insts,
		IPC:         append([]float64(nil), res.IPC...),
		PerCore:     append([]obs.LifecycleStats(nil), res.Lifecycle...),
		Metrics:     res.Metrics,
		TS:          res.TS,
		WallSeconds: elapsed.Seconds(),
	}
	r.Finalize()
	e.reports = append(e.reports, r)
}

// publishRun streams one executed run: a summary event, then the run's
// interval time-series rows (first row carries the column schema). No-op
// without an attached hub.
func (e *Engine) publishRun(j Job, res sim.Result, insts uint64, elapsed time.Duration) {
	if e.stream == nil {
		return
	}
	engine := string(j.Cfg.Prefetcher)
	apps := append([]string(nil), j.Apps...)
	run := obs.StreamRun{
		Event: "run", Engine: engine, Apps: apps,
		Cycles: res.Cycles, Insts: insts,
		WallSeconds: elapsed.Seconds(),
	}
	if res.Cycles > 0 {
		run.IPC = float64(insts) / float64(res.Cycles)
	}
	e.stream.Publish(run)
	if ts := res.TS; ts != nil {
		for k, row := range ts.Rows {
			ev := obs.StreamSample{
				Event: "sample", Engine: engine, Apps: apps,
				Cycle: ts.Base + uint64(k+1)*ts.Interval,
				Row:   row,
			}
			if k == 0 {
				ev.Names = ts.Names
			}
			e.stream.Publish(ev)
		}
	}
}

// checkpoints resolves one cached checkpoint per application.
func (e *Engine) checkpoints(apps []string, ff uint64) ([]*ckpt.Checkpoint, error) {
	cps := make([]*ckpt.Checkpoint, len(apps))
	for i, name := range apps {
		cp, err := e.checkpoint(name, ff)
		if err != nil {
			return nil, err
		}
		cps[i] = cp
	}
	return cps, nil
}

// checkpoint returns the memoized fast-forward checkpoint for one
// (workload, ffInsts) point, emulating it on first request. Concurrent
// requests for the same point coalesce onto a single emulation, exactly
// like runJob's result cache. Workload names are a sound cache key because
// workload builds are deterministic (the workload package's contract — the
// same property the run-cache fingerprint relies on).
func (e *Engine) checkpoint(name string, ff uint64) (*ckpt.Checkpoint, error) {
	key := fmt.Sprintf("%s|%d", name, ff)
	e.ckMu.Lock()
	ent, found := e.ckEntries[key]
	if !found {
		ent = &ckptEntry{done: make(chan struct{})}
		e.ckEntries[key] = ent
		e.ckMu.Unlock()
		// Second tier: a durable checkpoint replaces the whole prefix
		// emulation with one disk read. The key is content-addressed over
		// the workload's built program and initial image, so a changed
		// kernel generator can never resurrect stale state.
		var storeKey string
		if e.store != nil {
			if k, err := store.CheckpointKey(name, ff); err == nil {
				storeKey = k
				if cp, ok := e.store.GetCheckpoint(storeKey, name, ff); ok {
					ent.cp = cp
					close(ent.done)
					e.stCkHits.Add(1)
					e.logf("runner: checkpoint %-12s ff=%d from store (%d KB image)",
						name, ff, cp.FootprintBytes()>>10)
					return ent.cp, nil
				}
				e.stCkMiss.Add(1)
			}
		}
		start := time.Now() //bfetch:wallclock checkpoint-build timing, logged only
		ent.cp, ent.err = ckpt.ByName(name, ff)
		close(ent.done)
		e.ckMisses.Add(1)
		if e.store != nil && storeKey != "" && ent.err == nil {
			if err := e.store.PutCheckpoint(storeKey, ent.cp); err != nil {
				e.logf("runner: checkpoint store write-back failed (continuing): %v", err)
			}
		}
		if ent.cp != nil {
			e.emuInsts.Add(ent.cp.Arch.Retired)
			e.logf("runner: checkpoint %-12s ff=%d built in %s (%d KB image)",
				name, ff, time.Since(start).Round(time.Millisecond), //bfetch:wallclock log line only
				ent.cp.FootprintBytes()>>10)
		}
		return ent.cp, ent.err
	}
	e.ckMu.Unlock()
	<-ent.done
	e.ckHits.Add(1)
	return ent.cp, ent.err
}

func (e *Engine) logf(format string, args ...any) {
	e.logMu.Lock()
	defer e.logMu.Unlock()
	if e.log != nil {
		fmt.Fprintf(e.log, format+"\n", args...)
	}
}
