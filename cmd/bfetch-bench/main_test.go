package main

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestParseCores pins the -scalecores grammar: whole positive decimals only,
// so a typo like "16.5" or "8x" is an error instead of a silently truncated
// core count. A count whose scale configuration cannot assemble is
// rejected too.
func TestParseCores(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []int // nil: must be rejected
	}{
		{"8,16", []int{8, 16}},
		{" 4 ", []int{4}},
		{"2, 4 ,64", []int{2, 4, 64}},
		{"16.5", nil},
		{"8x", nil},
		{"0", nil},
		{"-4", nil},
		{"8,,16", nil},
		{"", nil},
		{"4,3", nil}, // a 6 MB LLC has 6144 sets, not a power of two
	} {
		got, err := parseCores(tc.in)
		if tc.want == nil {
			if err == nil {
				t.Errorf("parseCores(%q) = %v, want an error", tc.in, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseCores(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}

// TestCheckMixes pins that -mixes takes a count of at least 1.
func TestCheckMixes(t *testing.T) {
	for _, n := range []int{1, 2, 29} {
		if err := checkMixes(n); err != nil {
			t.Errorf("checkMixes(%d) = %v, want nil", n, err)
		}
	}
	for _, n := range []int{0, -1} {
		if checkMixes(n) == nil {
			t.Errorf("checkMixes(%d) accepted", n)
		}
	}
}

// TestParseVmHWM pins the peak-RSS line's source: the VmHWM entry of a
// /proc/<pid>/status file, in KiB, and nothing when it is absent or garbled.
func TestParseVmHWM(t *testing.T) {
	for _, tc := range []struct {
		status string
		kib    uint64
		ok     bool
	}{
		{"Name:\tbfetch-bench\nVmPeak:\t  812344 kB\nVmHWM:\t  458240 kB\nVmRSS:\t  401232 kB\n", 458240, true},
		{"VmHWM: 12 kB", 12, true},
		{"Name:\tbfetch-bench\nVmRSS:\t  401232 kB\n", 0, false},
		{"VmHWM:\t  12x kB\n", 0, false},
		{"VmHWM:\t  12 MB\n", 0, false},
		{"", 0, false},
	} {
		kib, ok := parseVmHWM(tc.status)
		if kib != tc.kib || ok != tc.ok {
			t.Errorf("parseVmHWM(%q) = %d, %v; want %d, %v", tc.status, kib, ok, tc.kib, tc.ok)
		}
	}
}

// TestThroughputLine pins the per-experiment throughput line: the deltas of
// the executed runs' simulated cycles and instructions over the wall time,
// and no line at all when the experiment simulated nothing.
func TestThroughputLine(t *testing.T) {
	prev := obs.Status{Runs: 4, SimCycles: 1_000_000, SimInsts: 500_000}
	st := obs.Status{Runs: 7, SimCycles: 4_000_000, SimInsts: 2_000_000}
	if got, want := throughputLine("fig8", st, prev, 2*time.Second),
		"fig8 simulated 1500.0 kcycles/s, 750.0 kinst/s (3 sims)"; got != want {
		t.Errorf("throughputLine = %q, want %q", got, want)
	}
	if got := throughputLine("fig8", prev, prev, time.Second); got != "" {
		t.Errorf("experiment that simulated nothing printed %q", got)
	}
}
