// Command benchmark is the repository's benchmark: it runs one workload
// for a fixed time, checks every simulated result, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) one per
// line as "name value unit", then one JSON object as its last line.
//
// Run it from the repository root:
//
//	bash benchmark/run.sh -workload fig8-solo -seed 1 -seconds 20 [-trace 1] [-append benchmark/history.jsonl]
//	go run ./benchmark compare A.jsonl B.jsonl
//
// See benchmark/README.md for the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// scratchDir, relative to the working directory, holds temporary stores
// and trace output; run.sh builds into it too.
const scratchDir = ".bench_build"

// paperSpeedup is the paper's B-Fetch geomean speedup over no prefetching
// (Fig. 8), the only reference the model has.
const paperSpeedup = 1.232

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// options configures one measured run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scratch  string // temporary stores and traces
	proto    protocol
	// probe, when set, times one more set-up in a fresh process; it is
	// called probes times and the median of all set-ups is reported.
	probe  func() (float64, error)
	probes int
}

// measurement is everything one run observed.
type measurement struct {
	setups      []float64 // seconds per set-up
	walls       []float64 // seconds per untraced round
	tracedWalls []float64 // seconds per traced round
	ops, failed int
	failures    []string
	digest      string
	speedup     float64
	counts      counts
	layers      *layerTime
	spanSums    map[string][]float64 // span name → per traced round totals
	profiles    [][]byte
	tr          *tracer
}

// measure sets the workload up, then runs rounds of it until the time
// budget is spent. Untraced and traced rounds alternate when tracing, so
// the traced rounds' wall time can be set against untraced ones.
func measure(o options) (*measurement, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	m := &measurement{tr: newTracer(o.workload), layers: newLayerTime(), spanSums: map[string][]float64{}}
	var inst instance
	t0 := time.Now()
	m.tr.span("setup", "setup", func() { inst, err = w.setup(o.proto, o.seed, o.scratch) })
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	m.setups = append(m.setups, time.Since(t0).Seconds())
	for i := 0; i < o.probes; i++ {
		s, err := o.probe()
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		m.setups = append(m.setups, s)
	}

	begin := time.Now()
	for k := 0; ; k++ {
		traced := o.trace && k%2 == 1
		m.tr.round = k
		var prof bytes.Buffer
		if traced {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		m.tr.span("round", "run", func() { inst.run(m.tr) })
		wall := time.Since(start).Seconds()
		if traced {
			pprof.StopCPUProfile()
			samples, err := parseProfile(prof.Bytes())
			if err != nil {
				return nil, err
			}
			m.layers.add(samples)
			m.profiles = append(m.profiles, prof.Bytes())
			m.tracedWalls = append(m.tracedWalls, wall)
			for _, name := range []string{"batch", "cold", "warm"} {
				m.spanSums[name] = append(m.spanSums[name], m.tr.total(name, k))
			}
		} else {
			m.walls = append(m.walls, wall)
		}

		out := inst.check(k == 0)
		m.ops += out.ops
		m.failed += out.failed
		m.failures = append(m.failures, out.failures...)
		if k == 0 {
			m.digest, m.speedup, m.counts = out.digest, out.speedup, out.counts
		} else {
			// Rounds repeat the same inputs, so results must repeat exactly.
			m.ops++
			if out.digest != m.digest {
				m.failed++
				m.failures = append(m.failures, fmt.Sprintf("round %d: sim_digest %s differs from round 0's %s", k, out.digest, m.digest))
			}
		}
		if time.Since(begin).Seconds() >= o.seconds && (!o.trace || len(m.tracedWalls) > 0) {
			break
		}
	}
	return m, nil
}

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// endToEnd are the metrics a user of the simulator sees, from untraced
// rounds only.
func (m *measurement) endToEnd() []metric {
	wall := median(m.walls)
	return []metric{
		{"setup_s", median(m.setups), "s"},
		{"wall_s", wall, "s"},
		{"sim_kips", ratio(float64(m.counts.simInsts)/1e3, wall), "kinst/s"},
		{"peak_rss_mib", peakRSSMiB(), "MiB"},
	}
}

// perLayer are the traced rounds' per-layer metrics.
func (m *measurement) perLayer() []metric {
	lt := m.layers
	n := float64(len(m.tracedWalls))
	ns := func(v int64) float64 { return ratio(float64(v), n) } // per traced round
	var out []metric
	for _, l := range layers {
		out = append(out,
			metric{"layer." + l + ".cpu_s", ns(lt.byLayer[l]) / 1e9, "s"},
			metric{"layer." + l + ".share", ratio(float64(lt.byLayer[l]), float64(lt.total)), "fraction"})
	}
	c := m.counts
	out = append(out,
		metric{"go.gc_share", ratio(float64(lt.gc), float64(lt.total)), "fraction"},
		metric{"go.alloc_share", ratio(float64(lt.alloc), float64(lt.total)), "fraction"},
		metric{"sim.jobs", float64(c.jobs), "count"},
		metric{"sim.cycles", float64(c.cycles), "count"},
		metric{"sim.insts", float64(c.simInsts), "count"},
		metric{"sim.bfetch_speedup", m.speedup, "x"},
		metric{"cache.l1d_accesses", float64(c.l1dAccesses), "count"},
		metric{"cache.llc_accesses", float64(c.llcAccesses), "count"},
		metric{"cache.dram_transfers", float64(c.dramTransfers), "count"},
		metric{"pf.issued", float64(c.pfIssued), "count"},
		metric{"pf.useful", float64(c.pfUseful), "count"},
		metric{"pf.accuracy", ratio(float64(c.pfUseful), float64(c.pfIssued)), "fraction"},
		metric{"emu.insts", float64(c.emuInsts), "count"},
		metric{"runner.ckpt_hits", float64(c.ckptHits), "count"},
		metric{"runner.ckpt_misses", float64(c.ckptMisses), "count"},
		metric{"runner.ckpt_hit_ratio", ratio(float64(c.ckptHits), float64(c.ckptHits+c.ckptMisses)), "fraction"},
		metric{"store.bytes_written", float64(c.bytesWritten), "B"},
		metric{"store.bytes_read", float64(c.bytesRead), "B"},
		metric{"store.hit_ratio", ratio(float64(c.storeHits), float64(c.storeHits+c.storeMisses)), "fraction"},
		metric{"cpu.ns_per_inst", ratio(ns(lt.byLayer["cpu"]), float64(c.simInsts)), "ns"},
		metric{"cache.ns_per_access", ratio(ns(lt.byLayer["cache"]), float64(c.l1dAccesses+c.llcAccesses)), "ns"},
		metric{"sim.ns_per_cycle", ratio(ns(lt.byLayer["sim"]), float64(c.cycles)), "ns"},
		metric{"emu.ns_per_inst", ratio(ns(lt.byLayer["emu"]), float64(c.emuInsts)), "ns"},
		metric{"store.ns_per_byte_written", ratio(ns(lt.byPhase["cold"]["store"]), float64(c.coldWritten)), "ns"},
		metric{"store.ns_per_byte_read", ratio(ns(lt.byPhase["warm"]["store"]), float64(c.warmRead)), "ns"},
		metric{"span.batch_s", median(m.spanSums["batch"]), "s"},
		metric{"span.cold_s", median(m.spanSums["cold"]), "s"},
		metric{"span.warm_s", median(m.spanSums["warm"]), "s"},
		metric{"trace.overhead", ratio(median(m.tracedWalls), median(m.walls)) - 1, "fraction"},
	)
	return out
}

// peakRSSMiB is the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// hostInfo identifies where and on what code a record was taken.
type hostInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Rev        string `json:"rev"`
	Dirty      bool   `json:"dirty"`
	Time       string `json:"time"`
}

func currentHost() hostInfo {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Rev:        "unknown",
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Rev = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			h.Dirty = len(bytes.TrimSpace(st)) > 0
		}
	}
	return h
}

// record is one history.jsonl line.
type record struct {
	Workload      string                 `json:"workload"`
	Seed          int64                  `json:"seed"`
	Seconds       float64                `json:"seconds"`
	Trace         bool                   `json:"trace"`
	Host          hostInfo               `json:"host"`
	Rounds        int                    `json:"rounds"`
	Correct       bool                   `json:"correct"`
	Attempted     int                    `json:"attempted"`
	Failed        int                    `json:"failed"`
	SimDigest     string                 `json:"sim_digest"`
	BFetchSpeedup float64                `json:"bfetch_speedup"`
	Setups        []float64              `json:"setups_s"`
	Walls         []float64              `json:"walls_s"`
	TracedWalls   []float64              `json:"traced_walls_s,omitempty"`
	Metrics       map[string]metricValue `json:"metrics"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func metricMap(ms []metric) map[string]metricValue {
	out := make(map[string]metricValue, len(ms))
	for _, m := range ms {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return out
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: fig8-solo, mix16-cpistack or ckpt-store")
		seed    = fs.Int64("seed", 1, "input seed")
		seconds = fs.Float64("seconds", 20, "measure rounds until this many seconds have passed")
		trace   = fs.Int("trace", 0, "1 = profile alternate rounds and report per-layer metrics")
		appendF = fs.String("append", "", "append the run's record to this JSONL file")
		probe   = fs.Bool("setup-probe", false, "only set up, print the set-up seconds and exit (used to sample set-up in fresh processes)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "benchmark: -trace takes 0 or 1")
		return 2
	}
	o := options{
		workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1,
		scratch: scratchDir, proto: fullProtocol,
	}
	if *probe {
		w, err := workloadByName(o.workload)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		t0 := time.Now()
		if _, err := w.setup(o.proto, o.seed, o.scratch); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintln(stdout, time.Since(t0).Seconds())
		return 0
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	o.probes = 6
	o.probe = func() (float64, error) {
		cmd := exec.Command(exe, "-workload", o.workload, "-seed", fmt.Sprint(o.seed), "-setup-probe")
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			return 0, err
		}
		return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	}

	m, err := measure(o)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	ms := m.endToEnd()
	if o.trace {
		ms = m.perLayer()
	}
	for _, f := range m.failures {
		fmt.Fprintln(stderr, "benchmark: FAILED:", f)
	}
	for _, x := range ms {
		fmt.Fprintf(stdout, "%s %.6g %s\n", x.name, x.value, x.unit)
	}
	fmt.Fprintf(stdout, "ops %d count\nfailed_ops %d count\nfail_frac %.6g fraction\n",
		m.ops, m.failed, ratio(float64(m.failed), float64(m.ops)))
	fmt.Fprintf(stdout, "bfetch_speedup %.6g x (paper: %.3f x; model unvalidated against hardware)\n", m.speedup, paperSpeedup)
	fmt.Fprintf(stdout, "sim_digest %s\n", m.digest)

	rec := record{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Host: currentHost(), Rounds: len(m.walls) + len(m.tracedWalls),
		Correct: m.failed == 0, Attempted: m.ops, Failed: m.failed,
		SimDigest: m.digest, BFetchSpeedup: m.speedup,
		Setups: m.setups, Walls: m.walls, TracedWalls: m.tracedWalls,
		Metrics: metricMap(ms),
	}
	if o.trace {
		dir := filepath.Join(o.scratch, "trace", fmt.Sprintf("%s-seed%d", o.workload, o.seed))
		if err := writeTrace(dir, m, rec); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintln(stderr, "benchmark: trace written to", dir)
	}
	if *appendF != "" {
		if err := appendRecord(*appendF, rec); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	line, err := json.Marshal(result{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: rec.Metrics})
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// writeTrace writes trace.json (the record with its layer table, the spans,
// and per-phase layer CPU seconds per traced round) and the raw CPU profile
// of each traced round.
func writeTrace(dir string, m *measurement, rec record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	phases := map[string]map[string]float64{}
	for ph, byLayer := range m.layers.byPhase {
		if ph == "" {
			ph = "unlabelled"
		}
		phases[ph] = map[string]float64{}
		for l, ns := range byLayer {
			phases[ph][l] = float64(ns) / 1e9 / float64(len(m.tracedWalls))
		}
	}
	doc, err := json.MarshalIndent(struct {
		Record record                        `json:"record"`
		Spans  []span                        `json:"spans"`
		Phases map[string]map[string]float64 `json:"phase_cpu_s"`
	}{rec, m.tr.spans, phases}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "trace.json"), doc, 0o644); err != nil {
		return err
	}
	for i, p := range m.profiles {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("cpu-%d.pprof", i)), p, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return errors.Join(f.Sync(), f.Close())
}
