package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

func validRun() RunReport {
	r := RunReport{
		Engine: "bfetch",
		Apps:   []string{"mcf"},
		Cycles: 1000,
		Insts:  500,
		IPC:    []float64{0.5},
		PerCore: []LifecycleStats{{
			Issued: 10, UsefulTimely: 4, UsefulLate: 2, UselessEvicted: 3,
			Polluting: 1, DemandMisses: 20,
		}},
		Metrics: Snapshot{Samples: []Sample{
			{Name: "a", Value: 1}, {Name: "b", Value: 2},
		}},
		WallSeconds: 0.25,
	}
	r.Finalize()
	return r
}

func TestFinalize(t *testing.T) {
	r := validRun()
	if r.Schema != SchemaRun {
		t.Errorf("schema = %q", r.Schema)
	}
	if r.Lifecycle.Issued != 10 || r.Lifecycle.Useful() != 6 {
		t.Errorf("aggregate lifecycle = %+v", r.Lifecycle)
	}
	if r.PerCore != nil {
		t.Error("single-core PerCore should be elided (redundant with aggregate)")
	}
	if r.Accuracy != 0.6 {
		t.Errorf("accuracy = %v, want 0.6", r.Accuracy)
	}
	if r.KCyclesPerSec != 4.0 {
		t.Errorf("kcycles/sec = %v, want 4", r.KCyclesPerSec)
	}

	// Multi-core: PerCore is retained and summed.
	m := validRun()
	m.PerCore = []LifecycleStats{{Issued: 3}, {Issued: 4}}
	m.Finalize()
	if m.Lifecycle.Issued != 7 || len(m.PerCore) != 2 {
		t.Errorf("multi-core finalize: %+v perCore %d", m.Lifecycle, len(m.PerCore))
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestValidateReportAccepts(t *testing.T) {
	cases := map[string]any{
		"run":        validRun(),
		"runs":       RunsFile{Schema: SchemaRuns, Runs: []RunReport{validRun()}},
		"empty runs": RunsFile{Schema: SchemaRuns, Runs: []RunReport{}},
		"status":     Status{Schema: SchemaStatus, JobsDone: 2, JobsTotal: 5},
	}
	for name, v := range cases {
		if _, err := ValidateReport(mustJSON(t, v)); err != nil {
			t.Errorf("%s rejected: %v", name, err)
		}
	}
}

// TestValidateReportIgnoresUnknownSections pins that a run report carrying a
// section this version does not model (an older writer's "ts" interval
// series) still validates: unknown keys are skipped, not rejected.
func TestValidateReportIgnoresUnknownSections(t *testing.T) {
	doc := strings.Replace(string(mustJSON(t, validRun())), "{",
		`{"ts":{"interval":256,"names":["a"],"rows":[[1]]},`, 1)
	if schema, err := ValidateReport([]byte(doc)); err != nil || schema != SchemaRun {
		t.Errorf("report with a ts section: schema %q, err %v", schema, err)
	}
}

func TestValidateReportRejects(t *testing.T) {
	overUseful := validRun()
	overUseful.Lifecycle.UsefulTimely = 100 // useful > issued

	noEngine := validRun()
	noEngine.Engine = ""

	emptyMetrics := validRun()
	emptyMetrics.Metrics = Snapshot{}

	unsorted := validRun()
	unsorted.Metrics.Samples = []Sample{{Name: "b"}, {Name: "a"}}

	badRatio := validRun()
	badRatio.Accuracy = 1.5

	cases := map[string]struct {
		doc  any
		want string
	}{
		"useful exceeds issued": {overUseful, "exceeds issued"},
		"missing engine":        {noEngine, "no engine"},
		"empty metrics":         {emptyMetrics, "empty metrics"},
		"unsorted metrics":      {unsorted, "not sorted"},
		"ratio out of range":    {badRatio, "out of [0,1]"},
		"inconsistent status": {Status{Schema: SchemaStatus, JobsDone: 9, JobsTotal: 5},
			"jobs_done"},
	}
	for name, c := range cases {
		_, err := ValidateReport(mustJSON(t, c.doc))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", name, err, c.want)
		}
	}

	if _, err := ValidateReport([]byte("not json")); err == nil {
		t.Error("non-JSON accepted")
	}
	if _, err := ValidateReport([]byte(`{"schema":"bogus/v9"}`)); err == nil {
		t.Error("unknown schema accepted")
	}
	if _, err := ValidateReport([]byte(`{}`)); err == nil {
		t.Error("missing schema accepted")
	}
}
