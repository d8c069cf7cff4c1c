package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

func tinyRun(t *testing.T, name string, trace bool) *measurement {
	t.Helper()
	m, err := measure(options{workload: name, seed: 1, trace: trace, scratch: t.TempDir(), proto: tinyProtocol})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if m.ops == 0 || m.failed != 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", name, m.failed, m.ops, m.failures)
	}
	return m
}

// TestSmokeDeterministic runs every workload twice at a tiny protocol: the
// results, counts and speedup must repeat exactly.
func TestSmokeDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b := tinyRun(t, w.name, false), tinyRun(t, w.name, false)
		if a.digest != b.digest || a.counts != b.counts || a.speedup != b.speedup {
			t.Errorf("%s: runs differ: digest %s vs %s, counts %+v vs %+v, speedup %v vs %v",
				w.name, a.digest, b.digest, a.counts, b.counts, a.speedup, b.speedup)
		}
		if a.counts.jobs == 0 || a.counts.simInsts == 0 || a.speedup <= 0 {
			t.Errorf("%s: nothing measured: %+v, speedup %v", w.name, a.counts, a.speedup)
		}
	}
}

type specFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []e2eMetric `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestSpecMatchesEmitted checks BENCHMARK.json against the metrics the
// benchmark emits, traced and untraced, on every workload, and against the
// declaration's limits.
func TestSpecMatchesEmitted(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp specFile
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(sp.Workloads) < 2 || len(sp.Workloads) > 8 || len(sp.EndToEnd) < 1 || len(sp.EndToEnd) > 16 ||
		len(sp.PerLayer) < 1 || len(sp.PerLayer) > 128 || sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("limits: %d workloads, %d end-to-end, %d per-layer, run_seconds %d",
			len(sp.Workloads), len(sp.EndToEnd), len(sp.PerLayer), sp.RunSeconds)
	}
	seen := map[string]bool{}
	checkName := func(name, unit, better string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("bad or repeated name %q", name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: bad unit %q", name, unit)
		}
		if better != "" && better != "higher" && better != "lower" {
			t.Errorf("%s: better = %q", name, better)
		}
	}
	var declared []string
	for _, w := range sp.Workloads {
		checkName(w.Name, "", "")
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
		declared = append(declared, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(declared, ours) {
		t.Errorf("declared workloads %v, benchmark has %v", declared, ours)
	}
	e2e := map[string]string{}
	for _, m := range sp.EndToEnd {
		checkName(m.Name, m.Unit, m.Better)
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		e2e[m.Name] = m.Unit
	}
	if e2e["setup_s"] != "s" {
		t.Errorf("setup_s missing or not in seconds")
	}
	layer := map[string]string{}
	for _, m := range sp.PerLayer {
		checkName(m.Name, m.Unit, m.Better)
		layer[m.Name] = m.Unit
	}
	emitted := func(ms []metric) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.name] = m.unit
		}
		return out
	}
	for _, w := range workloads {
		m := tinyRun(t, w.name, true)
		if got := emitted(m.endToEnd()); !reflect.DeepEqual(got, e2e) {
			t.Errorf("%s: end-to-end metrics emitted %v, declared %v", w.name, got, e2e)
		}
		if got := emitted(m.perLayer()); !reflect.DeepEqual(got, layer) {
			t.Errorf("%s: per-layer metrics emitted %v, declared %v", w.name, got, layer)
		}
		if len(m.tracedWalls) == 0 || len(m.walls) == 0 {
			t.Errorf("%s: traced run had %d traced and %d untraced rounds", w.name, len(m.tracedWalls), len(m.walls))
		}
	}
}
