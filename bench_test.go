package bfetch

// One benchmark per table and figure in the paper's evaluation (§V). Each
// runs the corresponding harness experiment at a reduced-but-representative
// budget and reports the headline scalar(s) as custom benchmark metrics, so
// `go test -bench=.` regenerates every artifact's key numbers. The full
// rows/series are printed by `go run ./cmd/bfetch-bench -exp all`.

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
)

// benchParams is the per-benchmark measurement budget: large enough for the
// qualitative shapes, small enough that the whole suite finishes in minutes.
func benchParams() harness.Params {
	return harness.Params{
		Opts:  sim.RunOpts{WarmupInsts: 25_000, MeasureInsts: 60_000},
		Mixes: 4,
	}
}

// lastRow returns the named row's numeric cells.
func lastRow(t *stats.Table, name string) []float64 {
	for _, row := range t.Rows {
		if row[0] != name {
			continue
		}
		var out []float64
		for _, cell := range row[1:] {
			if v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64); err == nil {
				out = append(out, v)
			}
		}
		return out
	}
	return nil
}

// runExperiment executes the experiment once per iteration and reports the
// geomean row of its first table under the given series names.
func runExperiment(b *testing.B, id string, geomeanRow string, series []string) {
	b.Helper()
	e, err := harness.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		tables, err := e.Run(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		if geomeanRow == "" {
			continue
		}
		vals := lastRow(tables[0], geomeanRow)
		for j, v := range vals {
			if j < len(series) {
				b.ReportMetric(v, series[j])
			}
		}
	}
}

func BenchmarkFig1PerfectUpperBound(b *testing.B) {
	runExperiment(b, "fig1", "Geomean", []string{"stride_x", "sms_x", "perfect_x"})
}

func BenchmarkFig3RegisterDeltas(b *testing.B) {
	e, _ := harness.ByID("fig3")
	for i := 0; i < b.N; i++ {
		tables, err := e.Run(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		// Fraction of register deltas within one block at 1/3/12 BB depth.
		row := lastRow(tables[0], "1")
		for j, label := range []string{"reg1BB_cdf", "reg3BB_cdf", "reg12BB_cdf"} {
			if j < len(row) {
				b.ReportMetric(row[j], label)
			}
		}
	}
}

func BenchmarkFig7BranchesPerCycle(b *testing.B) {
	e, _ := harness.ByID("fig7")
	for i := 0; i < b.N; i++ {
		tables, err := e.Run(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		row := lastRow(tables[0], "MEAN")
		if len(row) > 1 {
			b.ReportMetric(row[0], "frac_1branch")
			b.ReportMetric(row[1], "frac_2branch")
		}
	}
}

func BenchmarkTable1Storage(b *testing.B) {
	e, _ := harness.ByID("tab1")
	for i := 0; i < b.N; i++ {
		tables, err := e.Run(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range tables[0].Rows {
			if row[1] == "TOTAL" {
				if v, err := strconv.ParseFloat(row[3], 64); err == nil {
					b.ReportMetric(v, fmt.Sprintf("%s_KB", strings.ToLower(row[0])))
				}
			}
		}
	}
}

func BenchmarkTable2Config(b *testing.B) {
	runExperiment(b, "tab2", "", nil)
}

func BenchmarkFig8SingleThreaded(b *testing.B) {
	runExperiment(b, "fig8", "Geomean", []string{"stride_x", "sms_x", "bfetch_x"})
}

func BenchmarkFig9Mix2(b *testing.B) {
	// The mix table's "apps" column is non-numeric and is skipped by
	// lastRow, leaving exactly the three speedup series.
	runExperiment(b, "fig9", "Geomean", []string{"stride_x", "sms_x", "bfetch_x"})
}

func BenchmarkFig10Mix4(b *testing.B) {
	runExperiment(b, "fig10", "Geomean", []string{"stride_x", "sms_x", "bfetch_x"})
}

func BenchmarkFig11PrefetchQuality(b *testing.B) {
	e, _ := harness.ByID("fig11")
	for i := 0; i < b.N; i++ {
		tables, err := e.Run(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		row := lastRow(tables[0], "TOTAL")
		if len(row) == 4 {
			b.ReportMetric(row[0], "sms_useful")
			b.ReportMetric(row[1], "sms_useless")
			b.ReportMetric(row[2], "bfetch_useful")
			b.ReportMetric(row[3], "bfetch_useless")
		}
	}
}

func BenchmarkFig12ConfidenceThreshold(b *testing.B) {
	runExperiment(b, "fig12", "Geomean", []string{"conf045_x", "conf075_x", "conf090_x"})
}

func BenchmarkFig13PredictorSize(b *testing.B) {
	e, _ := harness.ByID("fig13")
	for i := 0; i < b.N; i++ {
		tables, err := e.Run(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		def := lastRow(tables[0], "Default")
		if len(def) >= 2 {
			b.ReportMetric(def[1], "bfetch_default_x")
		}
		big := lastRow(tables[0], "4x")
		if len(big) >= 2 {
			b.ReportMetric(big[1], "bfetch_4x_x")
		}
	}
}

func BenchmarkFig14PipelineWidth(b *testing.B) {
	runExperiment(b, "fig14", "Geomean", []string{"w2_x", "w4_x", "w8_x"})
}

func BenchmarkFig15StorageSensitivity(b *testing.B) {
	// Six scale points (the paper's four, plus 1/16 and 1/8 where the
	// synthetic kernels' smaller code footprints put the capacity knee).
	runExperiment(b, "fig15", "Geomean",
		[]string{"scale16th_x", "scale8th_x", "kb8_x", "kb10_x", "kb13_x", "kb19_x"})
}

func BenchmarkAblations(b *testing.B) {
	runExperiment(b, "ablation", "Geomean",
		[]string{"full_x", "nofilter_x", "noloop_x", "nopatterns_x", "commitARF_x"})
}

// ------------------------------------------------------- engine speedup --
//
// The serial/parallel pair tracks the experiment engine's scaling in the
// perf trajectory: same fig8 workload grid, one goroutine vs GOMAXPROCS.
// Each iteration gets a fresh engine and baseline store so the run-cache
// cannot turn later iterations into lookups — the pair measures execution,
// not memoization.

func benchEngine(b *testing.B, mkEngine func() *runner.Engine) {
	b.Helper()
	e, err := harness.ByID("fig8")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		p := benchParams()
		p.Runner = mkEngine()
		p.Baselines = harness.NewBaselineStore()
		if _, err := e.Run(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunnerSerial(b *testing.B) {
	benchEngine(b, func() *runner.Engine { return runner.New(1) })
}

func BenchmarkRunnerParallel(b *testing.B) {
	benchEngine(b, func() *runner.Engine { return runner.New(0) })
}
