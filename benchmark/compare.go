package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// spec is the part of BENCHMARK.json the comparator reads.
type spec struct {
	EndToEnd []e2eMetric `json:"end_to_end"`
}

type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (spec, error) {
	var s spec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// readRecords loads the untraced records of a history file, in file order.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Trace {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) does (exclusive method).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(ld+1)/4, 1), ld-1)
		delta := float64(i*(ld+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// verdict is the comparison of one metric on one workload.
type verdict struct {
	medA, q1A, q3A float64
	medB, q1B, q3B float64
	nA, nB         int
	wins, pairs    int
	call           string // better, worse, same or unresolved
}

// judge compares parent runs a with change runs b. The change is better
// when it wins at least nine tenths of the pairs and the medians differ by
// more than the parent's quartile spread; worse when its median is worse
// by more than bound (a share of the parent's median). A spread wider than
// the bound leaves the metric unresolved, unless every run of the change
// reads better than every run of the parent.
func judge(a, b []float64, higherBetter bool, bound float64) verdict {
	var v verdict
	v.q1A, v.medA, v.q3A = quartiles(a)
	v.q1B, v.medB, v.q3B = quartiles(b)
	v.nA, v.nB = len(a), len(b)
	better := func(x, y float64) bool { // x better than y
		if higherBetter {
			return x > y
		}
		return x < y
	}
	v.pairs = min(len(a), len(b))
	for i := 0; i < v.pairs; i++ {
		if better(b[i], a[i]) {
			v.wins++
		}
	}
	gain := v.medA - v.medB
	if higherBetter {
		gain = -gain
	}
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	wide := v.q3A-v.q1A > bound*v.medA || v.q3B-v.q1B > bound*v.medB
	switch {
	case v.pairs > 0 && 10*v.wins >= 9*v.pairs && gain > v.q3A-v.q1A:
		v.call = "better"
	case allBetter:
		v.call = "better"
	case wide:
		v.call = "unresolved"
	case -gain > bound*v.medA:
		v.call = "worse"
	default:
		v.call = "same"
	}
	return v
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark declaration holding each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare [-spec BENCHMARK.json] PARENT.jsonl CHANGE.jsonl")
		return 2
	}
	sp, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 1
	}
	a, err := readRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 1
	}
	b, err := readRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 1
	}
	compare(stdout, sp, a, b)
	return 0
}

// compare writes one row per workload and end-to-end metric, then flags
// any workload and seed whose simulated results differ between the sides.
func compare(w io.Writer, sp spec, a, b []record) {
	byWorkload := func(rs []record) map[string][]record {
		m := map[string][]record{}
		for _, r := range rs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	wa, wb := byWorkload(a), byWorkload(b)
	var names []string
	for n := range wa {
		if _, ok := wb[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-16s %-14s %-34s %-34s %-7s %s\n", "workload", "metric", "parent median [q1 q3] n", "change median [q1 q3] n", "won", "verdict")
	for _, n := range names {
		for _, e := range sp.EndToEnd {
			vals := func(rs []record) []float64 {
				var out []float64
				for _, r := range rs {
					if mv, ok := r.Metrics[e.Name]; ok {
						out = append(out, mv.Value)
					}
				}
				return out
			}
			va, vb := vals(wa[n]), vals(wb[n])
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := judge(va, vb, e.Better == "higher", e.Bound)
			fmt.Fprintf(w, "%-16s %-14s %-34s %-34s %-7s %s\n", n, e.Name,
				fmt.Sprintf("%.4g [%.4g %.4g] %d", v.medA, v.q1A, v.q3A, v.nA),
				fmt.Sprintf("%.4g [%.4g %.4g] %d", v.medB, v.q1B, v.q3B, v.nB),
				fmt.Sprintf("%d/%d", v.wins, v.pairs), v.call)
		}
		digests := map[int64]string{}
		for _, r := range wa[n] {
			digests[r.Seed] = r.SimDigest
		}
		flagged := map[int64]bool{}
		for _, r := range wb[n] {
			if d, ok := digests[r.Seed]; ok && d != r.SimDigest && !flagged[r.Seed] {
				flagged[r.Seed] = true
				fmt.Fprintf(w, "%s seed %d: simulated statistics changed (sim_digest %.12s → %.12s)\n", n, r.Seed, d, r.SimDigest)
			}
		}
	}
}
