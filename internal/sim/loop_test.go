package sim

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/isb"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sms"
	"repro/internal/stems"
	"repro/internal/workload"
)

// eqOpts is small enough to run every prefetcher twice but long enough to
// exercise warmup, ResetStats, squashes, and DRAM contention.
var eqOpts = RunOpts{WarmupInsts: 10_000, MeasureInsts: 40_000}

// runLoop executes the protocol exactly as Run does, on the naive reference
// loop when naive is set and on the event loop otherwise.
func runLoop(cfg Config, apps []string, opts RunOpts, naive bool) (Result, error) {
	s, err := newForRun(cfg, apps, opts)
	if err != nil {
		return Result{}, err
	}
	s.naive = naive
	return runProtocol(s, opts)
}

// TestLoopEquivalence is the event-driven clock's contract: for every
// prefetcher kind — the paper's four, both heavy-weight extensions, and a
// multi-programmed CMP mix — the skipping loop must reproduce the naive
// loop's Result snapshot bit for bit.
func TestLoopEquivalence(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		apps []string
	}{
		{"none", Default(PFNone), []string{"libquantum"}},
		{"stride", Default(PFStride), []string{"libquantum"}},
		{"sms", Default(PFSMS), []string{"milc"}},
		{"bfetch", Default(PFBFetch), []string{"libquantum"}},
		{"isb", Default(PFISB), []string{"mcf"}},
		{"stems", Default(PFSTeMS), []string{"milc"}},
		{"cmp-mix", Default(PFBFetch), []string{"libquantum", "mcf", "milc", "gamess"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			naive, errN := runLoop(tc.cfg, tc.apps, eqOpts, true)
			event, errE := runLoop(tc.cfg, tc.apps, eqOpts, false)
			if (errN == nil) != (errE == nil) {
				t.Fatalf("error mismatch: naive %v, event %v", errN, errE)
			}
			if errN != nil {
				t.Fatalf("run failed: %v", errN)
			}
			if !reflect.DeepEqual(naive, event) {
				t.Errorf("snapshots diverge\nnaive: %+v\nevent: %+v", naive, event)
			}
		})
	}
}

// TestLoopEquivalenceOnError checks the cycle-bound path: when a run cannot
// reach its instruction budget, both loops must fail with the same error —
// naming the core that lags furthest — and identical partial counters, solo
// and on a 4-core banked system whose cores contend for LLC banks and DRAM
// channels. The run-off-end case pairs libquantum, which reaches its budget,
// with a core that runs off its program's end without HALT: never halted,
// its NextEvent answers cpu.NoEvent forever, so the event loop must keep it
// scheduled (not finished) and report the bound as the naive loop's spin
// does.
func TestLoopEquivalenceOnError(t *testing.T) {
	cases := []struct {
		name   string
		cfg    Config
		apps   []workload.Workload
		insts  uint64
		cycles uint64
		lagger string
	}{
		{"solo", Default(PFNone), mustWorkloads(t, "libquantum"), 1 << 40, 50_000, "core 0 lags furthest"},
		{"banked-4core", DefaultScale(PFNone, 4), mustWorkloads(t, "libquantum", "mcf", "milc", "lbm"), 1 << 40, 30_000, "lags furthest"},
		{"run-off-end", Default(PFNone), append(mustWorkloads(t, "libquantum"), runsOffEnd()), 5_000, 100_000, "core 1 lags furthest"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(naive bool) (Result, error) {
				cfg := tc.cfg
				cfg.Cores = len(tc.apps)
				s, err := New(cfg, tc.apps)
				if err != nil {
					t.Fatal(err)
				}
				s.naive = naive
				err = s.Run(tc.insts, tc.cycles) // out of reach for one core: must hit the bound
				return s.Snapshot(), err
			}

			naive, errN := run(true)
			event, errE := run(false)
			if errN == nil || errE == nil {
				t.Fatalf("expected both loops to hit the cycle bound (naive %v, event %v)", errN, errE)
			}
			if errN.Error() != errE.Error() {
				t.Errorf("error text diverges:\nnaive: %v\nevent: %v", errN, errE)
			}
			if !strings.Contains(errE.Error(), tc.lagger) {
				t.Errorf("bound error does not name the straggler (%q): %v", tc.lagger, errE)
			}
			if !reflect.DeepEqual(naive, event) {
				t.Errorf("partial snapshots diverge\nnaive: %+v\nevent: %+v", naive, event)
			}
		})
	}
}

// runsOffEnd is a short countdown loop with no HALT after it: the core
// commits the loop, then fetches past the last instruction and stalls.
func runsOffEnd() workload.Workload {
	return workload.New("runs-off-end", "a countdown loop with no halt", "compute", false,
		func() (*isa.Program, *mem.Memory) {
			b := isa.NewBuilder()
			b.Movi(isa.Reg(1), 100)
			top := b.Here()
			b.Addi(isa.Reg(1), isa.Reg(1), -1)
			b.Bnez(isa.Reg(1), top)
			return b.MustProgram(), mem.New()
		})
}

func mustWorkloads(t *testing.T, names ...string) []workload.Workload {
	t.Helper()
	apps := make([]workload.Workload, len(names))
	for i, name := range names {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		apps[i] = w
	}
	return apps
}

func buildSystem(cfg Config, appNames []string) (*System, error) {
	apps := make([]workload.Workload, len(appNames))
	for i, name := range appNames {
		w, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		apps[i] = w
	}
	cfg.Cores = len(apps)
	return New(cfg, apps)
}

// TestResetStatsZeroesEverything audits the warmup/measure boundary: after
// ResetStats, a Snapshot must carry no trace of the warmup phase — core,
// cache, DRAM, clock, and prefetcher-internal counters included.
func TestResetStatsZeroesEverything(t *testing.T) {
	kinds := []PrefetcherKind{PFNone, PFStride, PFSMS, PFBFetch, PFISB, PFSTeMS}
	for _, kind := range kinds {
		t.Run(string(kind), func(t *testing.T) {
			s, err := buildSystem(Default(kind), []string{"libquantum"})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Run(20_000, 20_000_000); err != nil {
				t.Fatal(err)
			}
			s.ResetStats()
			res := s.Snapshot()

			if res.Cycles != 0 {
				t.Errorf("Cycles = %d after reset", res.Cycles)
			}
			if res.Core[0] != (cpu.Stats{}) {
				t.Errorf("core stats survive reset: %+v", res.Core[0])
			}
			// Each cache's window restarts with its untouched prefetched
			// blocks carried in, and nothing else.
			l1 := s.Cores[0].Hierarchy().L1D
			if want := (cache.Stats{PrefetchCarried: l1.PendingPrefetched()}); res.L1D[0] != want {
				t.Errorf("L1D stats after reset = %+v, want %+v", res.L1D[0], want)
			}
			if want := (cache.Stats{PrefetchCarried: s.LLC.PendingPrefetched()}); res.LLC != want {
				t.Errorf("LLC stats after reset = %+v, want %+v", res.LLC, want)
			}
			d := res.DRAM
			if d.DemandFills != 0 || d.PrefetchFills != 0 || d.Writebacks != 0 || d.StallCycles != 0 {
				t.Errorf("DRAM traffic survives reset: %+v", d)
			}
			if lc, pending := res.Lifecycle[0], l1.PendingPrefetched(); lc != (obs.LifecycleStats{Issued: pending}) {
				t.Errorf("lifecycle after reset = %+v, want only issued %d", lc, pending)
			}

			// Prefetcher-internal counters must reset too — each kind keeps
			// its own training/coverage statistics.
			switch pf := s.PFs[0].(type) {
			case *core.BFetch:
				if pf.Stats != (core.Stats{}) {
					t.Errorf("bfetch stats survive reset: %+v", pf.Stats)
				}
			case *sms.SMS:
				if pf.Generations != 0 || pf.PHTHits != 0 {
					t.Errorf("sms stats survive reset: %d/%d", pf.Generations, pf.PHTHits)
				}
			case *isb.ISB:
				if pf.TrainedPairs != 0 || pf.MetaOverflows != 0 {
					t.Errorf("isb stats survive reset: %d/%d", pf.TrainedPairs, pf.MetaOverflows)
				}
			case *stems.STeMS:
				if pf.TemporalHits != 0 || pf.Generations != 0 {
					t.Errorf("stems stats survive reset: %d/%d", pf.TemporalHits, pf.Generations)
				}
			}
		})
	}
}
