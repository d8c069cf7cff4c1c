package runner

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/branch"
	"repro/internal/obs"
	"repro/internal/prefetch"
	"repro/internal/sim"
)

// tinyOpts keeps each simulation short enough that the whole file runs in
// seconds even under -race.
func tinyOpts() sim.RunOpts {
	return sim.RunOpts{WarmupInsts: 2_000, MeasureInsts: 5_000}
}

func testJobs() []Job {
	opts := tinyOpts()
	var jobs []Job
	for _, kind := range []sim.PrefetcherKind{sim.PFNone, sim.PFStride, sim.PFBFetch} {
		for _, app := range []string{"libquantum", "gamess", "mcf"} {
			jobs = append(jobs, Solo(sim.Default(kind), app, opts))
		}
	}
	jobs = append(jobs, Multi(sim.Default(sim.PFSMS), []string{"mcf", "milc"}, opts))
	return jobs
}

func TestParallelMatchesSequential(t *testing.T) {
	jobs := testJobs()
	seq := New(1).RunAll(jobs)
	par := New(8).RunAll(jobs)
	if len(seq) != len(jobs) || len(par) != len(jobs) {
		t.Fatalf("outcome counts: seq %d, par %d, want %d", len(seq), len(par), len(jobs))
	}
	for i := range jobs {
		if seq[i].Err != nil || par[i].Err != nil {
			t.Fatalf("job %d errors: seq %v, par %v", i, seq[i].Err, par[i].Err)
		}
		if !reflect.DeepEqual(seq[i].Result, par[i].Result) {
			t.Errorf("job %d (%s on %v): parallel result diverges from sequential",
				i, jobs[i].Cfg.Prefetcher, jobs[i].Apps)
		}
	}
}

// TestLongestJobsStartFirst: workers take a batch's jobs by descending
// cores × instructions, stably, so a 64-core job listed among solo jobs is
// the first one started; results still come back in job order.
func TestLongestJobsStartFirst(t *testing.T) {
	opts := tinyOpts()
	long := opts
	long.MeasureInsts *= 2
	apps64 := make([]string, 64)
	for i := range apps64 {
		apps64[i] = "gamess"
	}
	jobs := []Job{
		Solo(sim.Default(sim.PFNone), "gamess", opts),
		Solo(sim.Default(sim.PFNone), "mcf", long),
		Solo(sim.Default(sim.PFStride), "gamess", opts),
		Multi(sim.Default(sim.PFNone), apps64, opts),
		Multi(sim.Default(sim.PFNone), []string{"mcf", "milc"}, opts),
		Solo(sim.Default(sim.PFStride), "mcf", opts),
	}
	if got, want := longestFirst(jobs), []int{3, 4, 1, 0, 2, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("start order %v, want %v", got, want)
	}

	small := append(jobs[:3:3], jobs[4:]...) // the same mix without the 64-core job
	seq := New(1).RunAll(small)
	par := New(2).RunAll(small)
	for i := range small {
		if seq[i].Err != nil || par[i].Err != nil || !reflect.DeepEqual(seq[i].Result, par[i].Result) {
			t.Errorf("job %d (%v): parallel outcome is not the sequential one in job order", i, small[i].Apps)
		}
	}
}

func TestEngineMatchesDirectRun(t *testing.T) {
	cfg := sim.Default(sim.PFBFetch)
	want, err := sim.RunSolo(cfg, "mcf", tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	got, err := New(4).Run(Solo(cfg, "mcf", tinyOpts()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("engine result differs from direct sim.RunSolo")
	}
}

func TestCacheHitsOnRepeatedJobs(t *testing.T) {
	e := New(4)
	job := Solo(sim.Default(sim.PFStride), "libquantum", tinyOpts())

	// Same point four times in one batch: one simulation, three hits.
	outs := e.RunAll([]Job{job, job, job, job})
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("job %d: %v", i, o.Err)
		}
		if !reflect.DeepEqual(outs[0].Result, o.Result) {
			t.Errorf("job %d result differs from first", i)
		}
	}
	st := e.Stats()
	if st.CacheMisses != 1 || st.CacheHits != 3 || st.Runs != 1 {
		t.Errorf("after batch: %+v, want 1 miss / 3 hits / 1 run", st)
	}

	// A later batch resubmitting the point hits again.
	if _, err := e.Run(job); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.CacheHits != 4 || st.Runs != 1 {
		t.Errorf("after resubmission: %+v, want 4 hits / 1 run", st)
	}
}

func TestFingerprint(t *testing.T) {
	opts := tinyOpts()
	a, ok := Fingerprint(sim.Default(sim.PFBFetch), []string{"mcf"}, opts)
	if !ok {
		t.Fatal("default config not cacheable")
	}
	b, _ := Fingerprint(sim.Default(sim.PFBFetch), []string{"mcf"}, opts)
	if a != b {
		t.Error("identical points fingerprint differently")
	}

	// Cores is normalized to the app count, so a stale caller value cannot
	// split the point.
	cfg := sim.Default(sim.PFBFetch)
	cfg.Cores = 7
	if c, _ := Fingerprint(cfg, []string{"mcf"}, opts); c != a {
		t.Error("Cores not normalized in fingerprint")
	}

	// Any config, workload, or protocol change must change the key.
	diff := sim.Default(sim.PFBFetch)
	diff.BFetch.PathThreshold = 0.9
	for name, got := range map[string]string{
		"config":   fp(t, diff, []string{"mcf"}, opts),
		"workload": fp(t, sim.Default(sim.PFBFetch), []string{"milc"}, opts),
		"opts":     fp(t, sim.Default(sim.PFBFetch), []string{"mcf"}, sim.RunOpts{WarmupInsts: 1, MeasureInsts: 5_000}),
		"kind":     fp(t, sim.Default(sim.PFSMS), []string{"mcf"}, opts),
	} {
		if got == a {
			t.Errorf("%s change did not change fingerprint", name)
		}
	}

	// Custom-factory configs must not be cached: closure identity is not
	// behaviour.
	custom := sim.Default(sim.PFCustom)
	custom.Factory = func(*branch.Predictor, *branch.Confidence) prefetch.Prefetcher {
		return prefetch.None{}
	}
	if _, ok := Fingerprint(custom, []string{"mcf"}, opts); ok {
		t.Error("factory config reported cacheable")
	}
}

func fp(t *testing.T, cfg sim.Config, apps []string, opts sim.RunOpts) string {
	t.Helper()
	key, ok := Fingerprint(cfg, apps, opts)
	if !ok {
		t.Fatal("expected cacheable point")
	}
	return key
}

func TestErrorsAreMemoizedAndOrdered(t *testing.T) {
	e := New(4)
	bad := Solo(sim.Default(sim.PFNone), "nonesuch", tinyOpts())
	good := Solo(sim.Default(sim.PFNone), "gamess", tinyOpts())
	outs := e.RunAll([]Job{good, bad, bad})
	if outs[0].Err != nil {
		t.Errorf("good job failed: %v", outs[0].Err)
	}
	for i := 1; i <= 2; i++ {
		if outs[i].Err == nil || !strings.Contains(outs[i].Err.Error(), "nonesuch") {
			t.Errorf("job %d error = %v, want unknown-benchmark", i, outs[i].Err)
		}
	}
}

func TestMap(t *testing.T) {
	e := New(4)
	vals := make([]int, 100)
	if err := e.Map(len(vals), func(i int) error {
		vals[i] = i * i
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v != i*i {
			t.Fatalf("vals[%d] = %d", i, v)
		}
	}
	err := e.Map(10, func(i int) error {
		if i == 3 || i == 7 {
			return fmt.Errorf("boom %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "boom 3" {
		t.Errorf("Map error = %v, want lowest-index boom 3", err)
	}
}

// TestAttributedWorkerInvariance pins batch-level determinism for attributed
// jobs: a CPI-attributed banked 16-core job and an attributed solo job each
// produce a bit-identical Result whether the batch runs on one worker or
// eight.
func TestAttributedWorkerInvariance(t *testing.T) {
	apps := []string{"mcf", "milc", "libquantum", "astar"}
	cfg := sim.DefaultScale(sim.PFBFetch, len(apps))
	cfg.CPU.CPIStack = true
	jobs := []Job{
		Multi(cfg, apps, tinyOpts()),
		Solo(func() sim.Config {
			c := sim.Default(sim.PFStride)
			c.CPU.CPIStack = true
			return c
		}(), "lbm", tinyOpts()),
	}

	one := New(1).RunAll(jobs)
	eight := New(8).RunAll(jobs)
	for i := range jobs {
		if one[i].Err != nil || eight[i].Err != nil {
			t.Fatalf("job %d errors: -j1 %v, -j8 %v", i, one[i].Err, eight[i].Err)
		}
		if !reflect.DeepEqual(one[i].Result, eight[i].Result) {
			t.Errorf("job %d: result diverges between -j 1 and -j 8", i)
		}
	}
}

// TestStreamPublishing subscribes a hub to an engine running one attributed
// job and checks the two-record protocol end to end: every line is a valid
// obs document, the run publishes one RunReport, the finished job publishes
// one Status, and nothing is dropped.
func TestStreamPublishing(t *testing.T) {
	hub := obs.NewStreamHub()
	sub, cancel := hub.Subscribe()
	defer cancel()

	cfg := sim.Default(sim.PFBFetch)
	cfg.CPU.CPIStack = true
	e := New(2)
	e.SetStream(hub)
	outs := e.RunAll([]Job{Solo(cfg, "mcf", tinyOpts())})
	if outs[0].Err != nil {
		t.Fatal(outs[0].Err)
	}

	var status, runs int
	for len(sub) > 0 {
		line := <-sub
		schema, err := obs.ValidateReport(line)
		if err != nil {
			t.Fatalf("stream line fails validation: %v\n%s", err, line)
		}
		switch schema {
		case obs.SchemaStatus:
			status++
			var s obs.Status
			if err := json.Unmarshal(line, &s); err != nil {
				t.Fatal(err)
			}
			if s.JobsDone != 1 || s.JobsTotal != 1 {
				t.Errorf("status jobs %d/%d, want 1/1", s.JobsDone, s.JobsTotal)
			}
		case obs.SchemaRun:
			runs++
			var r obs.RunReport
			if err := json.Unmarshal(line, &r); err != nil {
				t.Fatal(err)
			}
			if r.Engine != string(sim.PFBFetch) {
				t.Errorf("run engine %q, want %q", r.Engine, sim.PFBFetch)
			}
		default:
			t.Errorf("unexpected stream schema %q", schema)
		}
	}
	if status != 1 || runs != 1 {
		t.Errorf("got %d status and %d run lines, want 1 and 1", status, runs)
	}
	if hub.Dropped() != 0 {
		t.Errorf("%d lines dropped with a draining subscriber", hub.Dropped())
	}
}
