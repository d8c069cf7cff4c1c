package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles 1..10 = %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("quartiles 1,2,4 = %v %v %v", q1, med, q3)
	}
}

func TestJudge(t *testing.T) {
	parent := []float64{10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.05}
	cases := []struct {
		name   string
		change []float64
		higher bool
		bound  float64
		want   string
	}{
		{"wins 9 of 10 beyond the spread", []float64{9.0, 9.1, 8.9, 9.2, 8.8, 9.0, 9.1, 8.9, 9.0, 10.3}, false, 0.1, "better"},
		{"wins only 8 of 10", []float64{9.0, 9.1, 8.9, 9.2, 8.8, 9.0, 9.1, 8.9, 10.3, 10.3}, false, 0.1, "same"},
		{"spread wider than the bound", []float64{7, 13, 8, 12, 9, 11, 7, 13, 10, 14}, false, 0.1, "unresolved"},
		{"worse beyond the bound", []float64{12, 12.1, 11.9, 12.2, 11.8, 12, 12.1, 11.9, 12, 12.05}, false, 0.1, "worse"},
		{"worse within the bound", []float64{10.5, 10.6, 10.4, 10.7, 10.3, 10.5, 10.6, 10.4, 10.5, 10.55}, false, 0.1, "same"},
		{"higher is better", []float64{11, 11.1, 10.9, 11.2, 10.8, 11, 11.1, 10.9, 11, 11.05}, true, 0.1, "better"},
	}
	for _, c := range cases {
		if got := judge(parent, c.change, c.higher, c.bound).call; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFlagsDigestChange(t *testing.T) {
	sp := spec{EndToEnd: []e2eMetric{{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1}}}
	rec := func(seed int64, digest string, wall float64) record {
		return record{Workload: "fig8-solo", Seed: seed, SimDigest: digest,
			Metrics: map[string]metricValue{"wall_s": {Value: wall, Unit: "s"}}}
	}
	var out bytes.Buffer
	compare(&out, sp, []record{rec(1, "aa", 3), rec(2, "bb", 3)}, []record{rec(1, "aa", 3), rec(2, "cc", 3)})
	s := out.String()
	if !strings.Contains(s, "seed 2: simulated statistics changed") || strings.Contains(s, "seed 1:") {
		t.Errorf("digest flags wrong:\n%s", s)
	}
	if !strings.Contains(s, "wall_s") || !strings.Contains(s, "same") {
		t.Errorf("metric row missing:\n%s", s)
	}
}
