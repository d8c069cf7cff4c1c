package runner

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// TestObsSnapshotDeterminism is the scheduling-independence witness for the
// observability layer specifically: the metrics snapshot and lifecycle
// breakdown of every job must be bit-identical between -j 1 and -j N.
// (Their identity across the event and naive clock loops is pinned by
// sim.TestLoopEquivalence, which compares whole Results.)
func TestObsSnapshotDeterminism(t *testing.T) {
	var jobs []Job
	for _, kind := range []sim.PrefetcherKind{sim.PFStride, sim.PFBFetch} {
		for _, app := range []string{"mcf", "libquantum"} {
			jobs = append(jobs, Solo(sim.Default(kind), app, tinyOpts()))
		}
	}
	seq := New(1).RunAll(jobs)
	par := New(8).RunAll(jobs)
	for i := range jobs {
		if seq[i].Err != nil || par[i].Err != nil {
			t.Fatalf("job %d: seq %v, par %v", i, seq[i].Err, par[i].Err)
		}
		if !reflect.DeepEqual(seq[i].Result.Metrics, par[i].Result.Metrics) {
			t.Errorf("job %d: metrics snapshot diverges between -j 1 and -j 8", i)
		}
		if !reflect.DeepEqual(seq[i].Result.Lifecycle, par[i].Result.Lifecycle) {
			t.Errorf("job %d: lifecycle diverges between -j 1 and -j 8", i)
		}
		if len(seq[i].Result.Metrics.Samples) == 0 {
			t.Errorf("job %d: empty metrics snapshot", i)
		}
	}
}

func TestRunReportsCollection(t *testing.T) {
	e := New(4)
	if got := e.RunReports(); len(got) != 0 {
		t.Fatalf("reports before enabling: %d", len(got))
	}
	e.SetRunReports(true)
	jobs := []Job{
		Solo(sim.Default(sim.PFStride), "mcf", tinyOpts()),
		Solo(sim.Default(sim.PFBFetch), "libquantum", tinyOpts()),
		Solo(sim.Default(sim.PFStride), "mcf", tinyOpts()), // cache hit: no new execution
	}
	outs := e.RunAll(jobs)
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("job %d: %v", i, o.Err)
		}
	}

	reports := e.RunReports()
	if len(reports) != 2 {
		t.Fatalf("reports = %d, want 2 (cache hits execute nothing)", len(reports))
	}
	engines := []string{reports[0].Engine, reports[1].Engine}
	sort.Strings(engines)
	if !reflect.DeepEqual(engines, []string{"bfetch", "stride"}) {
		t.Errorf("report engines = %v", engines)
	}
	for _, r := range reports {
		if r.Schema != obs.SchemaRun {
			t.Errorf("report schema = %q", r.Schema)
		}
		if len(r.Metrics.Samples) == 0 {
			t.Errorf("%s report has empty metrics", r.Engine)
		}
		if r.Cycles == 0 || r.WallSeconds <= 0 {
			t.Errorf("%s report lacks throughput: cycles %d wall %v", r.Engine, r.Cycles, r.WallSeconds)
		}
	}

	if st := e.Stats(); st.JobsDone != 3 || st.JobsTotal != 3 {
		t.Errorf("jobs %d/%d, want 3/3", st.JobsDone, st.JobsTotal)
	}

	e.SetRunReports(false)
	if got := e.RunReports(); len(got) != 0 {
		t.Errorf("reports after disabling: %d", len(got))
	}
}

// FuzzValidateReport feeds the report validator arbitrary bytes, seeded with
// every document kind a real batch produces: a run report of a tiny
// attributed run, the batch status and a runs file. Any input must give
// either a schema with a nil error or an error; never a panic.
func FuzzValidateReport(f *testing.F) {
	cfg := sim.Default(sim.PFBFetch)
	cfg.CPU.CPIStack = true
	job := Solo(cfg, "libquantum", tinyOpts())
	e := New(1)
	res, err := e.Run(job)
	if err != nil {
		f.Fatal(err)
	}
	rep := Report(job, res, time.Millisecond)
	for _, doc := range []any{
		rep,
		e.Stats(),
		obs.RunsFile{Schema: obs.SchemaRuns, Runs: []obs.RunReport{rep}},
	} {
		seed, err := json.Marshal(doc)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := obs.ValidateReport(seed); err != nil {
			f.Fatalf("seed %T does not validate: %v", doc, err)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if schema, err := obs.ValidateReport(data); err == nil && schema == "" {
			t.Errorf("nil error without a schema for %q", data)
		}
	})
}
