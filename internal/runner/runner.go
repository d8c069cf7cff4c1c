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
// is emulated at most once per Engine lifetime (singleflight, like the
// run-cache) and every simulation of that workload boots from a
// copy-on-write restore of the cached checkpoint — however many prefetcher
// kinds, depths or bandwidth points sweep over it. A checkpoint that is
// neither in memory nor in the store resumes from the next-shorter
// fast-forward point of the same workload among the submitted jobs
// (ckpt.Resume), so an Engine emulates each workload's longest prefix once
// rather than every prefix from the program entry. Every checkpoint stays in
// memory for the Engine's lifetime, whether emulated or read from the
// store, and either way it owns only the pages whose contents its own
// segment changed: the rest it shares copy-on-write with the next-shorter
// checkpoint (resumed from it, or rebuilt against it from the store) and,
// through it, with the workload's built image.
// Restored runs are bit-identical to inline fast-forwarding (pinned by
// TestCheckpointedRunEquivalence).
package runner

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
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

// Stats is the Engine's batch record (see obs.Status).
type Stats = obs.Status

// Engine schedules simulation jobs over a bounded worker pool and memoizes
// their results. The zero value is not usable; construct with New. An
// Engine is safe for concurrent use and needs no shutdown: workers live
// only for the duration of each RunAll call.
type Engine struct {
	workers int
	store   *store.Store // durable second tier; nil = memory-only
	start   time.Time    // construction time, for the status uptime

	mu      sync.Mutex
	entries map[string]*entry

	ckMu      sync.Mutex
	ckEntries map[string]*ckptEntry
	ffPoints  map[string][]uint64 // per workload: sorted fast-forward lengths of submitted jobs

	hits, misses, runs  atomic.Uint64
	ckHits, ckMisses    atomic.Uint64
	stHits, stMisses    atomic.Uint64
	stCkHits, stCkMiss  atomic.Uint64
	simCycles, simInsts atomic.Uint64
	emuInsts            atomic.Uint64

	// stream, when set, receives each executed run's RunReport and a
	// Status after every finished job. Set before submitting jobs; a nil
	// hub publishes nothing.
	stream *obs.StreamHub

	// Jobs submitted through RunAll/Run and jobs finished (from cache or
	// simulation).
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
// A predecessor lookup may create an entry before any job asks for it;
// claimed records that a job has, so hit/miss counts stay per job request.
type ckptEntry struct {
	done    chan struct{}
	cp      *ckpt.Checkpoint
	err     error
	stored  bool // read from the store rather than emulated
	claimed bool // guarded by Engine.ckMu
}

// New returns a parallel Engine running up to workers simulations at once;
// workers <= 0 selects GOMAXPROCS.
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		workers:   workers,
		start:     time.Now(), //bfetch:wallclock status uptime only
		entries:   make(map[string]*entry),
		ckEntries: make(map[string]*ckptEntry),
		ffPoints:  make(map[string][]uint64),
	}
}

// Workers reports the pool size.
func (e *Engine) Workers() int { return e.workers }

// SetStore attaches a durable on-disk store (internal/store) as the second
// tier of the lookup: memory singleflight → disk store → compute, with
// computed results and checkpoints written back. Attach before submitting
// jobs; a nil store detaches. Store failures are absorbed: an unreadable
// entry is a miss, and a failed write-back counts in StoreWriteErrs. The
// disk tier can only make runs cheaper, never wronger, because entries are
// keyed by the same fingerprint that guarantees byte-identical results and
// validated end-to-end on read. A checkpoint read from the store stays in
// memory like an emulated one, so each is read at most once per Engine.
func (e *Engine) SetStore(s *store.Store) { e.store = s }

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

// SetStream attaches a live hub: each executed simulation publishes its
// RunReport, and each finished job publishes the engine's Stats. Attach
// before submitting jobs; nil detaches. Publishing is non-blocking (the hub
// drops lines to slow subscribers), so streaming never back-pressures the
// batch.
func (e *Engine) SetStream(h *obs.StreamHub) { e.stream = h }

// Stats returns the engine's batch record: jobs done and submitted, cache,
// checkpoint and store counters, and throughput since New. Callers fill in
// Experiment.
func (e *Engine) Stats() Stats {
	s := Stats{
		Schema: obs.SchemaStatus,
		// Done is loaded before total, so done ≤ total holds.
		JobsDone: e.jobsDone.Load(), JobsTotal: e.jobsTotal.Load(),
		Runs: e.runs.Load(), CacheHits: e.hits.Load(), CacheMisses: e.misses.Load(),
		CkptHits: e.ckHits.Load(), CkptMisses: e.ckMisses.Load(),
		StoreHits: e.stHits.Load(), StoreMisses: e.stMisses.Load(),
		StoreCkptHits: e.stCkHits.Load(), StoreCkptMisses: e.stCkMiss.Load(),
		SimCycles: e.simCycles.Load(), SimInsts: e.simInsts.Load(),
		EmuInsts:      e.emuInsts.Load(),
		UptimeSeconds: time.Since(e.start).Seconds(), //bfetch:wallclock status uptime only
	}
	if s.UptimeSeconds > 0 {
		s.KCyclesPerSec = float64(s.SimCycles) / 1e3 / s.UptimeSeconds
	}
	if e.store != nil {
		m := e.store.Metrics()
		s.StoreWriteErrs, s.StoreBytesRead = m.WriteErrs, m.BytesRead
		s.StoreReadSeconds = m.ReadTime.Seconds()
	}
	return s
}

// AddEmuInsts reports functionally emulated instructions executed outside
// the engine's own fast-forward path — the characterization experiments
// (Figures 3 and 7) drive the emulator directly through Map and account for
// their work here so throughput records show no degenerate zero rows.
func (e *Engine) AddEmuInsts(n uint64) { e.emuInsts.Add(n) }

// Run executes one job (through the cache), as a batch of one.
func (e *Engine) Run(job Job) (sim.Result, error) {
	e.jobsTotal.Add(1)
	e.recordPoints([]Job{job})
	o := e.runJob(job)
	return o.Result, o.Err
}

// RunAll executes the batch and returns one Outcome per job, in job order.
// Identical jobs — within the batch or vs. earlier batches — simulate once.
// The workers take the longest jobs first (longestFirst), so a large job
// listed late does not run alone at the end of the batch.
func (e *Engine) RunAll(jobs []Job) []Outcome {
	e.jobsTotal.Add(uint64(len(jobs)))
	e.recordPoints(jobs)
	out := make([]Outcome, len(jobs))
	if e.workers == 1 || len(jobs) <= 1 {
		for i, j := range jobs {
			out[i] = e.runJob(j)
		}
	} else {
		order := longestFirst(jobs)
		e.fanOut(len(jobs), func(k int) {
			i := order[k]
			out[i] = e.runJob(jobs[i])
		})
	}
	return out
}

// longestFirst returns the job indices stably sorted by descending cost,
// estimated from the job alone as cores × simulated instructions per core,
// so the order never depends on the host.
func longestFirst(jobs []Job) []int {
	cost := func(j Job) uint64 { return uint64(len(j.Apps)) * (j.Opts.WarmupInsts + j.Opts.MeasureInsts) }
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(cost(jobs[b]), cost(jobs[a])) })
	return order
}

// Map runs fn(0..n-1) across the pool and returns the lowest-index error.
// It is the fan-out for experiment work that is not a simulation (the
// functional profiles); results must be written into index-addressed slots
// by fn, which keeps assembly deterministic.
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
// in-flight entry cannot deadlock: result entries never depend on one
// another, and a checkpoint entry depends only on a shorter checkpoint of
// the same workload, so the dependency graph has no cycle and the
// computing worker always makes progress.
func (e *Engine) runJob(j Job) Outcome {
	defer e.finish()
	key, cacheable := Fingerprint(j.Cfg, j.Apps, j.Opts)
	if !cacheable {
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
		// same program), so it answers the job and seeds the memory tier
		// without simulating anything.
		if e.store != nil {
			if res, ok := e.store.GetResult(key); ok {
				ent.res = res
				close(ent.done)
				e.stHits.Add(1)
				return Outcome{Result: res}
			}
			e.stMisses.Add(1)
		}
		o := e.execute(j)
		ent.res, ent.err = o.Result, o.Err
		close(ent.done)
		e.misses.Add(1)
		if e.store != nil && o.Err == nil {
			_ = e.store.PutResult(key, o.Result) // a failure counts in StoreWriteErrs
		}
		return o
	}
	e.mu.Unlock()
	<-ent.done
	e.hits.Add(1)
	return Outcome{Result: ent.res, Err: ent.err}
}

// finish counts one finished job and publishes the batch record.
func (e *Engine) finish() {
	e.jobsDone.Add(1)
	if e.stream != nil {
		e.stream.Publish(e.Stats())
	}
}

// execute performs the actual simulation. Fast-forward protocols boot from
// the engine's checkpoint cache so each workload's prefix is emulated once.
func (e *Engine) execute(j Job) Outcome {
	start := time.Now() //bfetch:wallclock run wall time, RunReport only
	var res sim.Result
	var err error
	if ff := j.Opts.FastForwardInsts; ff > 0 {
		// A configuration the system cannot be built with fails here, not
		// after its fast-forwards have been emulated and stored.
		cfg := j.Cfg
		cfg.Cores = len(j.Apps)
		var cps []*ckpt.Checkpoint
		if err = cfg.Validate(); err == nil {
			cps, err = e.checkpoints(j.Apps, ff)
		}
		if err == nil {
			res, err = sim.RunCheckpointed(j.Cfg, cps, j.Opts)
		}
	} else {
		res, err = sim.Run(j.Cfg, j.Apps, j.Opts)
	}
	wall := time.Since(start) //bfetch:wallclock run wall time, RunReport only
	e.runs.Add(1)
	if err == nil {
		for _, cs := range res.Core {
			e.simCycles.Add(cs.Cycles)
			e.simInsts.Add(cs.Committed)
		}
		e.record(j, res, wall)
	}
	return Outcome{Result: res, Err: err}
}

// record emits one executed run's RunReport: kept for RunReports when
// collection is on, and published when a stream is attached.
func (e *Engine) record(j Job, res sim.Result, wall time.Duration) {
	e.repMu.Lock()
	keep := e.keepReports
	e.repMu.Unlock()
	if !keep && e.stream == nil {
		return
	}
	r := Report(j, res, wall)
	e.stream.Publish(r)
	e.repMu.Lock()
	if e.keepReports {
		e.reports = append(e.reports, r)
	}
	e.repMu.Unlock()
}

// Report builds the run record of one executed job from its result and its
// wall time (checkpoint resolution included).
func Report(j Job, res sim.Result, wall time.Duration) obs.RunReport {
	var insts uint64
	for _, cs := range res.Core {
		insts += cs.Committed
	}
	r := obs.RunReport{
		Engine:      string(j.Cfg.Prefetcher),
		Apps:        append([]string(nil), j.Apps...),
		Cycles:      res.Cycles,
		Insts:       insts,
		IPC:         append([]float64(nil), res.IPC...),
		PerCore:     append([]obs.LifecycleStats(nil), res.Lifecycle...),
		Metrics:     res.Metrics,
		WallSeconds: wall.Seconds(),
	}
	r.Finalize()
	return r
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

// recordPoints adds the jobs' (workload, fast-forward) points to the sorted
// per-workload sets that checkpoint misses resume from. It runs before the
// jobs fan out, so a point's predecessor is known whatever order the
// workers reach them in.
func (e *Engine) recordPoints(jobs []Job) {
	e.ckMu.Lock()
	defer e.ckMu.Unlock()
	for _, j := range jobs {
		ff := j.Opts.FastForwardInsts
		if ff == 0 {
			continue
		}
		for _, name := range j.Apps {
			pts := e.ffPoints[name]
			if i, found := slices.BinarySearch(pts, ff); !found {
				e.ffPoints[name] = slices.Insert(pts, i, ff)
			}
		}
	}
}

// checkpoint returns the memoized fast-forward checkpoint for one
// (workload, ffInsts) point of a job, computing it on first request.
// Concurrent requests for the same point coalesce onto a single
// computation, exactly like runJob's result cache. Workload names are a
// sound cache key because workload builds are deterministic (the workload
// package's contract — the same property the run-cache fingerprint relies
// on). The first job request of a point counts a checkpoint miss unless the
// store answered it; every later one counts a hit.
func (e *Engine) checkpoint(name string, ff uint64) (*ckpt.Checkpoint, error) {
	ent, first := e.ckptEntry(name, ff, true)
	<-ent.done
	switch {
	case !first:
		e.ckHits.Add(1)
	case !ent.stored:
		e.ckMisses.Add(1)
	}
	return ent.cp, ent.err
}

// ckptEntry returns the entry of one point, creating and filling it if it
// is new. claim marks a job's request; a predecessor lookup passes false
// and counts in neither hits nor misses. first reports the claiming request.
func (e *Engine) ckptEntry(name string, ff uint64, claim bool) (ent *ckptEntry, first bool) {
	key := fmt.Sprintf("%s|%d", name, ff)
	e.ckMu.Lock()
	ent, found := e.ckEntries[key]
	if !found {
		ent = &ckptEntry{done: make(chan struct{})}
		e.ckEntries[key] = ent
	}
	first = claim && !ent.claimed
	if claim {
		ent.claimed = true
	}
	var pred uint64 // the next-shorter recorded point; 0 = the program entry
	if !found {
		pts := e.ffPoints[name]
		if i, _ := slices.BinarySearch(pts, ff); i > 0 {
			pred = pts[i-1]
		}
	}
	e.ckMu.Unlock()
	if !found {
		e.fill(ent, name, ff, pred)
	}
	return ent, first
}

// fill computes a new entry. It resolves the predecessor's entry first
// (itself memory, store or emulation); the predecessor is a submitted
// point, so this only moves work that its own job would do. Second tier: a
// durable checkpoint replaces the prefix emulation with one disk read, and
// shares each page its segment left unchanged with the predecessor. The
// store keys it by the running program, so a changed kernel generator or
// emulator can never resurrect another build's state. On
// a store miss the point resumes from its predecessor, and a predecessor's
// error is the point's error unchanged: the emulator would fault at the
// same instruction on the way to the longer point.
func (e *Engine) fill(ent *ckptEntry, name string, ff, pred uint64) {
	var base *ckptEntry
	if pred != 0 {
		base, _ = e.ckptEntry(name, pred, false)
		<-base.done
	}
	if e.store != nil {
		var shared *ckpt.Checkpoint
		if base != nil {
			shared = base.cp // nil if the predecessor failed
		}
		if cp, ok := e.store.GetCheckpoint(name, ff, shared); ok {
			ent.cp, ent.stored = cp, true
			close(ent.done)
			e.stCkHits.Add(1)
			return
		}
		e.stCkMiss.Add(1)
	}
	var from uint64 // retired count the emulation starts at
	if base == nil {
		ent.cp, ent.err = ckpt.ByName(name, ff)
	} else if ent.err = base.err; ent.err == nil {
		ent.cp, ent.err = ckpt.Resume(base.cp, ff)
		from = base.cp.Arch.Retired
	}
	close(ent.done)
	if ent.err != nil {
		return
	}
	e.emuInsts.Add(ent.cp.Arch.Retired - from)
	if e.store != nil {
		_ = e.store.PutCheckpoint(ent.cp) // a failure counts in StoreWriteErrs
	}
}
