package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"

	"repro/internal/harness"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// workers is the simulation pool size of every engine the benchmark builds:
// one process, two workers, matching the two-CPU host the numbers in
// README.md were taken on.
const workers = 2

// protocol sizes the workloads. The benchmark measures fullProtocol; the
// tests run the same code paths at tinyProtocol.
type protocol struct {
	kernels []string    // kernel set; nil = all 18
	opts    sim.RunOpts // fig8-solo and mix16-cpistack measurement protocol
	cores   int         // mix16-cpistack CMP size
	foaInst uint64      // mix16-cpistack FOA profile length per kernel
	ffStep  uint64      // ckpt-store fast-forwards are ffStep×{1,2,3,4} plus jitter
	jitter  uint64      // ckpt-store: each fast-forward length gets a seeded jitter below this
	ckptRun sim.RunOpts // ckpt-store protocol after the fast-forward
	oracles int         // ckpt-store inline recomputations, first round only
}

// fullProtocol sizes each workload so that one round takes a few seconds
// and a run can report the median of several rounds. fig8-solo and
// mix16-cpistack keep the default 1M-instruction fast-forward and 1:3
// warmup:measure ratio with windows a quarter of the default; ckpt-store
// emulates 6M to 24M instructions per point, enough for emulation and the
// store to dominate its host time.
var fullProtocol = protocol{
	opts:    sim.RunOpts{FastForwardInsts: 1_000_000, WarmupInsts: 25_000, MeasureInsts: 75_000},
	cores:   16,
	foaInst: 100_000,
	ffStep:  6_000_000,
	jitter:  250_000,
	ckptRun: sim.RunOpts{MeasureInsts: 5_000},
	oracles: 4,
}

var tinyProtocol = protocol{
	kernels: []string{"libquantum", "mcf"},
	opts:    sim.RunOpts{FastForwardInsts: 100_000, MeasureInsts: 5_000},
	cores:   16,
	foaInst: 10_000,
	ffStep:  100_000,
	jitter:  10_000,
	ckptRun: sim.RunOpts{MeasureInsts: 2_000},
	oracles: 2,
}

func (p protocol) kernelNames() []string {
	if p.kernels != nil {
		return append([]string(nil), p.kernels...)
	}
	return workload.Names()
}

// benchWorkload is one named workload; BENCHMARK.json says why each was
// chosen. setup builds its inputs from the seed; it is the work timed as
// setup_s.
type benchWorkload struct {
	name  string
	setup func(p protocol, seed int64, scratch string) (instance, error)
}

// instance is a set-up workload. run is the timed section and keeps any
// error for check, which verifies what run produced and counts it, and is
// not timed.
type instance interface {
	run(tr *tracer)
	check(first bool) roundOut
}

// roundOut is what one round produced, as verified by check.
type roundOut struct {
	ops, failed int
	failures    []string // first few failure messages
	digest      string   // sim_digest over every result of the round
	speedup     float64  // bfetch_speedup
	counts      counts
}

func (o *roundOut) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 5 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// counts are the round's deterministic per-layer counts. Cache, prefetch
// and cycle counts cover the measured window of every simulation the round
// executed; results answered from the store are not counted again.
type counts struct {
	jobs          uint64 // simulations executed
	cycles        uint64 // core-cycles in measured windows
	simInsts      uint64 // cycle-accurate instructions, warmup + measured, all cores
	l1dAccesses   uint64
	llcAccesses   uint64
	dramTransfers uint64
	pfIssued      uint64
	pfUseful      uint64
	emuInsts      uint64 // functionally emulated instructions
	ckptHits      uint64 // checkpoint restores from memory or store
	ckptMisses    uint64 // checkpoints emulated
	bytesWritten  uint64 // store payload bytes written
	bytesRead     uint64 // store payload bytes read
	storeHits     uint64
	storeMisses   uint64
	coldWritten   uint64 // ckpt-store: bytes written in the cold pass
	warmRead      uint64 // ckpt-store: bytes read in the warm pass
}

// addResult counts one executed simulation.
func (c *counts) addResult(res sim.Result, warmup uint64) {
	c.jobs++
	for i, cs := range res.Core {
		c.cycles += cs.Cycles
		c.simInsts += cs.Committed + warmup
		c.l1dAccesses += res.L1D[i].Accesses
	}
	c.llcAccesses += res.LLC.Accesses
	c.dramTransfers += res.DRAM.DemandFills + res.DRAM.PrefetchFills + res.DRAM.Writebacks
	for _, lc := range res.Lifecycle {
		c.pfIssued += lc.Issued
		c.pfUseful += lc.Useful()
	}
}

func (c *counts) addEngine(st runner.Stats) {
	c.emuInsts += st.EmuInsts
	c.ckptHits += st.CkptHits + st.StoreCkptHits
	c.ckptMisses += st.CkptMisses
}

func (c *counts) addStore(m store.Metrics) {
	c.bytesWritten += m.BytesWritten
	c.bytesRead += m.BytesRead
	c.storeHits += m.Hits
	c.storeMisses += m.Misses
}

// checkJob applies the per-job invariants: no error, every core reached
// its measured target, prefetch lifecycle accounting within issued, and
// (when attributed) CPI buckets summing exactly to the core's cycles.
func checkJob(o *roundOut, what string, out runner.Outcome, opts sim.RunOpts, cpi bool) {
	o.ops++
	if out.Err != nil {
		o.fail("%s: %v", what, out.Err)
		return
	}
	res := out.Result
	for i, cs := range res.Core {
		if cs.Committed < opts.MeasureInsts {
			o.fail("%s: core %d committed %d of %d", what, i, cs.Committed, opts.MeasureInsts)
			return
		}
		if cpi && cs.CPI.Total() != cs.Cycles {
			o.fail("%s: core %d CPI buckets sum to %d, cycles %d", what, i, cs.CPI.Total(), cs.Cycles)
			return
		}
	}
	for i, lc := range res.Lifecycle {
		if lc.Useful()+lc.UselessEvicted > lc.Issued {
			o.fail("%s: core %d useful %d + useless %d > issued %d",
				what, i, lc.Useful(), lc.UselessEvicted, lc.Issued)
			return
		}
	}
}

// digest is sha256 over the canonical JSON of every result, keyed by the
// runner's config fingerprint so submission order does not matter.
func digest(jobs []runner.Job, outs []runner.Outcome) string {
	entries := make(map[string][]byte, len(jobs))
	for i, j := range jobs {
		key, _ := runner.Fingerprint(j.Cfg, j.Apps, j.Opts) // no job here has a custom Factory
		var b []byte
		if outs[i].Err != nil {
			b = []byte("error: " + outs[i].Err.Error())
		} else if enc, err := json.Marshal(outs[i].Result); err == nil {
			b = enc
		} else {
			b = []byte("unencodable: " + err.Error())
		}
		entries[key] = b
	}
	keys := make([]string, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s\n%s\n", k, entries[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sameExported compares two results by their canonical JSON, which holds
// every exported field.
func sameExported(a, b sim.Result) bool {
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(ja, jb)
}

func geomean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// buildKernels is the set-up every workload shares: build each kernel once,
// as any invocation of the simulator must before it can run one.
func buildKernels(names []string) error {
	for _, name := range names {
		w, err := workload.ByName(name)
		if err != nil {
			return err
		}
		w.Build()
	}
	return nil
}

var workloads = []benchWorkload{
	{
		// The seed draws the kernel order of every round.
		name: "fig8-solo",
		setup: func(p protocol, seed int64, _ string) (instance, error) {
			names := p.kernelNames()
			if err := buildKernels(names); err != nil {
				return nil, err
			}
			exp, err := harness.ByID("fig8")
			if err != nil {
				return nil, err
			}
			return &fig8Solo{p: p, names: names, rng: rand.New(rand.NewSource(seed)), exp: exp}, nil
		},
	},
	{
		// The mix is the highest-contention one, as in -exp cpistack; the
		// seed places its applications on cores. Seeding the choice of mix
		// instead would change the work per run by more than the noise.
		name: "mix16-cpistack",
		setup: func(p protocol, seed int64, _ string) (instance, error) {
			names := p.kernelNames()
			if err := buildKernels(names); err != nil {
				return nil, err
			}
			foa, err := workload.FOAProfiles(p.foaInst)
			if err != nil {
				return nil, err
			}
			allowed := make(map[string]float64, len(names))
			for _, n := range names {
				allowed[n] = foa[n]
			}
			mixes := workload.SelectMixes(p.cores, 1, allowed)
			if len(mixes) == 0 {
				return nil, fmt.Errorf("no %d-core mix from %d kernels", p.cores, len(names))
			}
			apps := append([]string(nil), mixes[0].Apps...)
			rng := rand.New(rand.NewSource(seed))
			rng.Shuffle(len(apps), func(i, j int) { apps[i], apps[j] = apps[j], apps[i] })
			return &mix16{p: p, apps: apps}, nil
		},
	},
	{
		// The seed jitters the four fast-forward lengths, orders the points
		// and picks the points the oracle recomputes.
		name: "ckpt-store",
		setup: func(p protocol, seed int64, scratch string) (instance, error) {
			names := p.kernelNames()
			if err := buildKernels(names); err != nil {
				return nil, err
			}
			rng := rand.New(rand.NewSource(seed))
			var ffs []uint64
			for k := uint64(1); k <= 4; k++ {
				ffs = append(ffs, k*p.ffStep+uint64(rng.Int63n(int64(p.jitter))))
			}
			c := &ckptStore{p: p, scratch: scratch}
			for _, ff := range ffs {
				for _, name := range names {
					c.points = append(c.points, ckptPoint{name, ff})
				}
			}
			rng.Shuffle(len(c.points), func(i, j int) { c.points[i], c.points[j] = c.points[j], c.points[i] })
			for _, i := range rng.Perm(len(warmKinds) * len(c.points))[:p.oracles] {
				c.oracles = append(c.oracles, i)
			}
			return c, nil
		},
	},
}

func workloadByName(name string) (benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// ---------------------------------------------------------------- fig8-solo --

type fig8Solo struct {
	p     protocol
	names []string   // kernels in name order
	rng   *rand.Rand // draws each round's kernel order
	exp   harness.Experiment
	order []string // this round's kernel order
	eng   *runner.Engine
	err   error
}

// run submits the kernels in a fresh seeded order each round. With two
// workers, the order decides how long one worker idles at the end of a
// batch; drawing it per round lets the median over rounds average that out
// instead of fixing it per seed.
func (f *fig8Solo) run(tr *tracer) {
	f.order = append(f.order[:0], f.names...)
	f.rng.Shuffle(len(f.order), func(i, j int) { f.order[i], f.order[j] = f.order[j], f.order[i] })
	f.eng = runner.New(workers)
	params := harness.Params{
		Opts:      f.p.opts,
		Workloads: f.order,
		Runner:    f.eng,
		Baselines: harness.NewBaselineStore(),
	}
	tr.span("batch", "", func() { _, f.err = f.exp.Run(params) })
}

func (f *fig8Solo) check(bool) roundOut {
	var o roundOut
	if f.err != nil {
		o.ops++
		o.fail("fig8: %v", f.err)
	}
	st := f.eng.Stats()
	// The same points again: every one is a run-cache hit, which hands back
	// the results the experiment computed.
	var jobs []runner.Job
	for _, kind := range sim.Kinds {
		for _, name := range f.names {
			jobs = append(jobs, runner.Solo(sim.Default(kind), name, f.p.opts))
		}
	}
	outs := f.eng.RunAll(jobs)
	for i, j := range jobs {
		checkJob(&o, fmt.Sprintf("%s on %s", j.Cfg.Prefetcher, j.Apps[0]), outs[i], f.p.opts, false)
		if outs[i].Err == nil {
			o.counts.addResult(outs[i].Result, f.p.opts.WarmupInsts)
		}
	}
	if o.failed == 0 {
		n := len(f.names)
		base, bf := outs[:n], outs[len(outs)-n:]
		ratios := make([]float64, n)
		for k := range ratios {
			ratios[k] = bf[k].Result.IPC[0] / base[k].Result.IPC[0]
		}
		o.speedup = geomean(ratios)
	}
	o.counts.addEngine(st)
	o.digest = digest(jobs, outs)
	return o
}

// ----------------------------------------------------------- mix16-cpistack --

// mixKinds are the engines mix16-cpistack runs, baseline first.
var mixKinds = []sim.PrefetcherKind{sim.PFNone, sim.PFStride, sim.PFSMS, sim.PFBFetch}

type mix16 struct {
	p    protocol
	apps []string // one per core, seed-permuted placement
	eng  *runner.Engine
	jobs []runner.Job
	outs []runner.Outcome
}

func (m *mix16) run(tr *tracer) {
	m.eng = runner.New(workers)
	m.eng.SetRunReports(true)
	m.jobs = m.jobs[:0]
	for _, kind := range mixKinds {
		cfg := sim.DefaultScale(kind, m.p.cores)
		cfg.CPU.CPIStack = true
		m.jobs = append(m.jobs, runner.Multi(cfg, m.apps, m.p.opts))
	}
	tr.span("batch", "", func() { m.outs = m.eng.RunAll(m.jobs) })
}

func (m *mix16) check(bool) roundOut {
	var o roundOut
	ipc := make([]float64, len(m.outs))
	for i, out := range m.outs {
		checkJob(&o, fmt.Sprintf("%s on %d-core mix", m.jobs[i].Cfg.Prefetcher, m.p.cores), out, m.p.opts, true)
		if out.Err == nil {
			o.counts.addResult(out.Result, m.p.opts.WarmupInsts)
			for _, v := range out.Result.IPC {
				ipc[i] += v
			}
		}
	}
	if reps := len(m.eng.RunReports()); reps != len(m.jobs) {
		o.ops++
		o.fail("run reports: %d for %d jobs", reps, len(m.jobs))
	}
	if o.failed == 0 {
		o.speedup = ipc[len(ipc)-1] / ipc[0]
	}
	o.counts.addEngine(m.eng.Stats())
	o.digest = digest(m.jobs, m.outs)
	return o
}

// --------------------------------------------------------------- ckpt-store --

// warmKinds are the engines of the warm pass, one fresh engine each.
var warmKinds = []sim.PrefetcherKind{sim.PFStride, sim.PFSMS, sim.PFBFetch}

type ckptPoint struct {
	kernel string
	ff     uint64
}

type ckptStore struct {
	p       protocol
	scratch string
	points  []ckptPoint // seed-permuted (kernel, fast-forward) points
	oracles []int       // seeded indices into the warm engine jobs

	dir      string
	err      error
	coldJobs []runner.Job
	coldOuts []runner.Outcome
	warmJobs [][]runner.Job // per warm engine: the PFNone jobs, then its own
	warmOuts [][]runner.Outcome
	cnt      counts
}

func (c *ckptStore) jobs(kind sim.PrefetcherKind) []runner.Job {
	jobs := make([]runner.Job, len(c.points))
	for i, pt := range c.points {
		opts := c.p.ckptRun
		opts.FastForwardInsts = pt.ff
		jobs[i] = runner.Solo(sim.Default(kind), pt.kernel, opts)
	}
	return jobs
}

func (c *ckptStore) run(tr *tracer) {
	c.cnt, c.coldOuts, c.warmJobs, c.warmOuts = counts{}, nil, nil, nil
	if c.err = os.MkdirAll(c.scratch, 0o755); c.err != nil {
		return
	}
	if c.dir, c.err = os.MkdirTemp(c.scratch, "ckpt-store-"); c.err != nil {
		return
	}
	tr.span("cold", "cold", func() {
		c.coldJobs = c.jobs(sim.PFNone)
		var m store.Metrics
		c.coldOuts, m, c.err = c.pass(tr, c.coldJobs)
		c.cnt.coldWritten = m.BytesWritten
	})
	if c.err != nil {
		return
	}
	tr.span("warm", "warm", func() {
		for _, kind := range warmKinds {
			jobs := append(c.jobs(sim.PFNone), c.jobs(kind)...)
			outs, m, err := c.pass(tr, jobs)
			if err != nil {
				c.err = err
				return
			}
			c.warmJobs = append(c.warmJobs, jobs)
			c.warmOuts = append(c.warmOuts, outs)
			c.cnt.warmRead += m.BytesRead
		}
	})
}

// pass runs jobs in one batch on a fresh engine over the store in c.dir.
func (c *ckptStore) pass(tr *tracer, jobs []runner.Job) ([]runner.Outcome, store.Metrics, error) {
	st, err := store.Open(c.dir)
	if err != nil {
		return nil, store.Metrics{}, err
	}
	eng := runner.New(workers)
	eng.SetStore(st)
	var outs []runner.Outcome
	tr.span("batch", "", func() { outs = eng.RunAll(jobs) })
	m := st.Metrics()
	c.cnt.addEngine(eng.Stats())
	c.cnt.addStore(m)
	return outs, m, nil
}

func (c *ckptStore) check(first bool) roundOut {
	defer os.RemoveAll(c.dir)
	o := roundOut{counts: c.cnt}
	if c.err != nil {
		o.ops++
		o.fail("ckpt-store: %v", c.err)
		return o
	}
	n := len(c.points)
	for i, out := range c.coldOuts {
		checkJob(&o, fmt.Sprintf("cold %s ff=%d", c.points[i].kernel, c.points[i].ff), out, c.p.ckptRun, false)
		if out.Err == nil {
			o.counts.addResult(out.Result, 0)
		}
	}
	var ratios []float64
	for w, outs := range c.warmOuts {
		for i, out := range outs {
			pt := c.points[i%n]
			what := fmt.Sprintf("warm %s %s ff=%d", c.warmJobs[w][i].Cfg.Prefetcher, pt.kernel, pt.ff)
			before := o.failed
			checkJob(&o, what, out, c.p.ckptRun, false)
			if o.failed > before {
				continue
			}
			if i < n {
				// Read back from the store: must equal the cold pass in
				// every exported field. Unexported DRAM scheduling state is
				// not stored, so reflect.DeepEqual cannot hold here.
				if c.coldOuts[i].Err == nil && !sameExported(out.Result, c.coldOuts[i].Result) {
					o.fail("%s: store result differs from the cold result", what)
				}
				continue
			}
			o.counts.addResult(out.Result, 0)
			if warmKinds[w] == sim.PFBFetch && c.coldOuts[i-n].Err == nil {
				ratios = append(ratios, out.Result.IPC[0]/c.coldOuts[i-n].Result.IPC[0])
			}
		}
	}
	if first {
		c.checkOracles(&o)
	}
	if o.failed == 0 && len(ratios) > 0 {
		o.speedup = geomean(ratios)
	}
	var jobs []runner.Job
	var outs []runner.Outcome
	jobs = append(jobs, c.coldJobs...)
	outs = append(outs, c.coldOuts...)
	for w := range c.warmJobs {
		jobs = append(jobs, c.warmJobs[w][n:]...)
		outs = append(outs, c.warmOuts[w][n:]...)
	}
	o.digest = digest(jobs, outs)
	return o
}

// checkOracles recomputes the seeded warm points inline with sim.Run — no
// runner, no checkpoint, no store — and requires the store-restored result.
func (c *ckptStore) checkOracles(o *roundOut) {
	n := len(c.points)
	for _, k := range c.oracles {
		w, i := k/n, k%n
		j := c.warmJobs[w][n+i]
		got := c.warmOuts[w][n+i]
		o.ops++
		want, err := sim.Run(j.Cfg, j.Apps, j.Opts)
		switch {
		case err != nil:
			o.fail("oracle %s %v: %v", j.Cfg.Prefetcher, j.Apps, err)
		case got.Err != nil:
			o.fail("oracle %s %v: restored run failed: %v", j.Cfg.Prefetcher, j.Apps, got.Err)
		case !reflect.DeepEqual(want, got.Result):
			o.fail("oracle %s %v ff=%d: inline result differs from the store-restored one",
				j.Cfg.Prefetcher, j.Apps, j.Opts.FastForwardInsts)
		}
	}
}
