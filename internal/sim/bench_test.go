package sim

import (
	"testing"

	"repro/internal/workload"
)

// BenchmarkSimMemoryBound runs a full warmup+measure protocol on mcf — a
// pointer chase that spends most of its cycles stalled on DRAM — under both
// clock strategies. The ratio naive/event is the event-driven loop's whole
// point: stall cycles dominate, and the event loop skips them.
func BenchmarkSimMemoryBound(b *testing.B) {
	opts := RunOpts{WarmupInsts: 5_000, MeasureInsts: 25_000}
	for _, mode := range []struct {
		name  string
		naive bool
	}{{"naive", true}, {"event", false}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := Default(PFNone)
			b.ReportAllocs()
			var cycles uint64
			for i := 0; i < b.N; i++ {
				res, err := runLoop(cfg, []string{"mcf"}, opts, mode.naive)
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.Cycles
			}
			b.ReportMetric(float64(cycles)/1e3/float64(b.Elapsed().Seconds())/1e3, "Msimcycles/s")
		})
	}
}

// BenchmarkSimScale is the scale-out engine's headline measurement: a
// 16-core memory-diverse mix on the banked/channeled configuration, under
// (a) the naive per-cycle scan and (b) the event loop, plus the event loop on
// a 64-core mix, the largest supported size, where its per-event pass over
// every core's next-event cycle is longest. Results are byte-identical
// across the two loops, so this is pure wall clock.
func BenchmarkSimScale(b *testing.B) {
	opts := RunOpts{WarmupInsts: 2_000, MeasureInsts: 8_000}
	for _, mode := range []struct {
		name  string
		apps  []string
		naive bool
	}{{"naive", mix16, true}, {"event", mix16, false}, {"event-64", mix64(), false}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := DefaultScale(PFBFetch, len(mode.apps))
			b.ReportAllocs()
			var coreCycles uint64
			for i := 0; i < b.N; i++ {
				res, err := runLoop(cfg, mode.apps, opts, mode.naive)
				if err != nil {
					b.Fatal(err)
				}
				coreCycles += res.Cycles * uint64(len(mode.apps))
			}
			b.ReportMetric(float64(coreCycles)/1e6/b.Elapsed().Seconds(), "Mcorecycles/s")
		})
	}
}

// mix64 tiles the workload suite round-robin over 64 cores, as the scale
// experiment's wide mixes do, so every kernel runs three or four times.
func mix64() []string {
	names := workload.Names()
	apps := make([]string, 64)
	for i := range apps {
		apps[i] = names[i%len(names)]
	}
	return apps
}
