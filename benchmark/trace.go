package main

import (
	"context"
	"runtime/pprof"
	"time"
)

// tracer records a span around each call the benchmark makes into the
// program and labels it for the CPU profiler: "workload" on every span,
// "phase" (setup, run, cold, warm) where a span starts one. Worker
// goroutines the runner starts inside a span inherit its labels. Spans stay
// in memory until the run ends.
type tracer struct {
	t0    time.Time
	ctx   context.Context
	round int
	spans []span
	stack []int // open spans, innermost last
}

type span struct {
	Name   string  `json:"name"`
	Round  int     `json:"round"` // -1 for set-up
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"` // index into spans, -1 for none
}

func newTracer(workload string) *tracer {
	return &tracer{
		t0:    time.Now(),
		ctx:   pprof.WithLabels(context.Background(), pprof.Labels("workload", workload)),
		round: -1,
	}
}

// span runs fn inside a span named name, switching the phase label when
// phase is not empty.
func (t *tracer) span(name, phase string, fn func()) {
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.spans = append(t.spans, span{Name: name, Round: t.round, Parent: parent,
		Start: time.Since(t.t0).Seconds()})
	idx := len(t.spans) - 1
	t.stack = append(t.stack, idx)
	outer := t.ctx
	labels := pprof.Labels()
	if phase != "" {
		labels = pprof.Labels("phase", phase)
	}
	pprof.Do(outer, labels, func(ctx context.Context) {
		t.ctx = ctx
		fn()
	})
	t.ctx = outer
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[idx].End = time.Since(t.t0).Seconds()
}

// total sums the durations of the named spans in one round.
func (t *tracer) total(name string, round int) float64 {
	s := 0.0
	for _, sp := range t.spans {
		if sp.Name == name && sp.Round == round {
			s += sp.End - sp.Start
		}
	}
	return s
}
