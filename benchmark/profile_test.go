package main

import (
	"bytes"
	"context"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerRule(t *testing.T) {
	cases := []struct {
		name   string
		frames []frame
		want   string
	}{
		{"map lookup charged to its caller", []frame{
			{"runtime.mapaccess2_fast64", "/go/src/internal/runtime/maps/runtime_fast64.go"},
			{"repro/internal/mem.(*Memory).pageFor", "/src/internal/mem/mem.go"},
			{"repro/internal/emu.(*CPU).Run", "/src/internal/emu/emu.go"},
		}, "mem"},
		{"GC worker has no module frame", []frame{
			{"runtime.scanobject", "/go/src/runtime/mgcmark.go"},
			{"runtime.gcDrain", "/go/src/runtime/mgcmark.go"},
			{"runtime.gcBgMarkWorker", "/go/src/runtime/mgc.go"},
		}, "go.runtime"},
		{"CPI attribution lives in the cpu package", []frame{
			{"repro/internal/cpu.(*Core).chargeCycle", "/src/internal/cpu/cpistack.go"},
			{"repro/internal/cpu.(*Core).Cycle", "/src/internal/cpu/core.go"},
		}, "cpistack"},
		{"stride engine", []frame{
			{"repro/internal/prefetch.(*Stride).AppendTick", "/src/internal/prefetch/stride.go"},
		}, "pf.stride"},
		{"shared queue goes to the engine calling it", []frame{
			{"repro/internal/prefetch.(*Queue).Push", "/src/internal/prefetch/prefetch.go"},
			{"repro/internal/sms.(*SMS).Access", "/src/internal/sms/sms.go"},
		}, "pf.sms"},
		{"generic instantiation", []frame{
			{"repro/internal/store.sortedKeys[go.shape.string]", "/src/internal/store/schema.go"},
		}, "store"},
		{"stats helper goes to the harness", []frame{
			{"repro/internal/stats.Geomean", "/src/internal/stats/stats.go"},
			{"repro/internal/harness.speedupTable", "/src/internal/harness/harness.go"},
		}, "harness"},
	}
	for _, c := range cases {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("%s: layer %q, want %q", c.name, got, c.want)
		}
	}
	gcFrames := cases[1].frames
	if !isGC(gcFrames) || isGC(cases[0].frames) {
		t.Errorf("isGC misclassifies")
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

// TestParseProfile decodes a real CPU profile: samples carry CPU time,
// frames and the labels set with pprof.Do.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	pprof.Do(context.Background(), pprof.Labels("phase", "run"), func(context.Context) {
		spin(300 * time.Millisecond)
	})
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var labelled, spun int64
	for _, s := range samples {
		if s.ns <= 0 {
			t.Errorf("sample with %d ns", s.ns)
		}
		if s.labels["phase"] == "run" {
			labelled += s.ns
		}
		for _, f := range s.frames {
			if f.fn == "repro/benchmark.spin" {
				spun += s.ns
				break
			}
		}
	}
	if spun == 0 || labelled == 0 {
		t.Errorf("%d samples: %d ns in spin, %d ns labelled", len(samples), spun, labelled)
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Errorf("garbage parsed without error")
	}
}
