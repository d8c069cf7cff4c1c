package runner

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/sim"
)

// ffTinyOpts is a fast-forward protocol small enough for -race runs.
func ffTinyOpts() sim.RunOpts {
	return sim.RunOpts{FastForwardInsts: 20_000, WarmupInsts: 2_000, MeasureInsts: 5_000}
}

// TestCheckpointedRunEquivalence is the checkpoint cache's contract: for
// every prefetcher kind — the paper's four, both heavy-weight extensions —
// and a 4-core CMP mix, a run booted from the engine's cached checkpoint
// must be bit-identical to sim.Run emulating the same fast-forward inline.
func TestCheckpointedRunEquivalence(t *testing.T) {
	opts := ffTinyOpts()
	cases := []struct {
		name string
		cfg  sim.Config
		apps []string
	}{
		{"none", sim.Default(sim.PFNone), []string{"libquantum"}},
		{"stride", sim.Default(sim.PFStride), []string{"libquantum"}},
		{"sms", sim.Default(sim.PFSMS), []string{"milc"}},
		{"bfetch", sim.Default(sim.PFBFetch), []string{"libquantum"}},
		{"isb", sim.Default(sim.PFISB), []string{"mcf"}},
		{"stems", sim.Default(sim.PFSTeMS), []string{"milc"}},
		{"cmp-mix", sim.Default(sim.PFBFetch), []string{"libquantum", "mcf", "milc", "gamess"}},
	}
	eng := New(4)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inline, err := sim.Run(tc.cfg, tc.apps, opts)
			if err != nil {
				t.Fatal(err)
			}
			cached, err := eng.Run(Multi(tc.cfg, tc.apps, opts))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(inline, cached) {
				t.Errorf("checkpoint-cached result diverges from inline fast-forward\ninline: %+v\ncached: %+v",
					inline, cached)
			}
		})
	}
	st := eng.Stats()
	// Four distinct workloads at one FF length: exactly four prefix
	// emulations, everything else restored from cache.
	if st.CkptMisses != 4 {
		t.Errorf("checkpoint misses = %d, want 4 (one per workload)", st.CkptMisses)
	}
	if st.CkptHits == 0 {
		t.Error("no checkpoint-cache hits across a multi-kind sweep")
	}
	if st.EmuInsts < 4*opts.FastForwardInsts {
		t.Errorf("emulated insts = %d, want ≥ %d", st.EmuInsts, 4*opts.FastForwardInsts)
	}
}

// TestCheckpointedRunMatchesInline: the engine always boots fast-forward
// jobs from its checkpoint cache, and the result must equal sim.Run's
// inline fast-forward, the test oracle.
func TestCheckpointedRunMatchesInline(t *testing.T) {
	opts := ffTinyOpts()
	cfg := sim.Default(sim.PFStride)
	inline, err := sim.Run(cfg, []string{"mcf"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(2)
	cached, err := eng.Run(Solo(cfg, "mcf", opts))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inline, cached) {
		t.Error("checkpointed run diverges from the inline fast-forward oracle")
	}
	if st := eng.Stats(); st.CkptMisses != 1 {
		t.Errorf("checkpoint misses = %d, want 1 (the run booted from the cache)", st.CkptMisses)
	}
}

// TestConcurrentCheckpointSharing floods a parallel engine with jobs that
// all boot from one checkpoint — the singleflight must emulate the prefix
// once, and the concurrent copy-on-write restores must not race (this test
// is part of the -race leg).
func TestConcurrentCheckpointSharing(t *testing.T) {
	opts := ffTinyOpts()
	var jobs []Job
	for _, kind := range []sim.PrefetcherKind{sim.PFNone, sim.PFStride, sim.PFSMS, sim.PFBFetch} {
		cfg := sim.Default(kind)
		jobs = append(jobs, Solo(cfg, "mcf", opts))
		wide := sim.Default(kind)
		wide.CPU = wide.CPU.WithWidth(2)
		jobs = append(jobs, Solo(wide, "mcf", opts))
	}
	eng := New(8)
	outs := eng.RunAll(jobs)
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("job %d: %v", i, o.Err)
		}
	}
	st := eng.Stats()
	if st.CkptMisses != 1 {
		t.Errorf("checkpoint misses = %d, want 1 (single workload, single FF)", st.CkptMisses)
	}
	if want := uint64(len(jobs) - 1); st.CkptHits != want {
		t.Errorf("checkpoint hits = %d, want %d", st.CkptHits, want)
	}
}

// TestChainedCheckpointsEmulateEachPrefixOnce: a batch that fast-forwards
// the same workloads to several lengths resumes each checkpoint from the
// next-shorter one, so the engine emulates Σ max ff per workload whatever
// the job order or worker count — and every result still equals a lone
// engine's run of the same job. Predecessor lookups count as neither hits
// nor misses: each point misses once, every other request hits.
func TestChainedCheckpointsEmulateEachPrefixOnce(t *testing.T) {
	ffs := map[string][]uint64{"mcf": {4_000, 9_000, 15_000}, "libquantum": {6_000, 11_000}}
	var jobs []Job
	for _, kind := range []sim.PrefetcherKind{sim.PFNone, sim.PFStride} {
		for _, app := range []string{"mcf", "libquantum"} {
			for _, ff := range ffs[app] {
				opts := ffTinyOpts()
				opts.FastForwardInsts = ff
				jobs = append(jobs, Solo(sim.Default(kind), app, opts))
			}
		}
	}
	reversed := slices.Clone(jobs)
	slices.Reverse(reversed)
	for _, order := range []struct {
		name string
		jobs []Job
	}{{"ascending", jobs}, {"descending", reversed}} {
		for _, workers := range []int{1, 2} {
			eng := New(workers)
			outs := eng.RunAll(order.jobs)
			for i, o := range outs {
				if o.Err != nil {
					t.Fatalf("%s -j %d job %d: %v", order.name, workers, i, o.Err)
				}
				want, err := New(1).Run(order.jobs[i])
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(o.Result, want) {
					t.Errorf("%s -j %d job %d: chained result diverges from a lone run", order.name, workers, i)
				}
			}
			st := eng.Stats()
			if want := uint64(15_000 + 11_000); st.EmuInsts != want {
				t.Errorf("%s -j %d: emulated %d insts, want %d (Σ max ff per workload)", order.name, workers, st.EmuInsts, want)
			}
			if st.CkptMisses != 5 || st.CkptHits != 5 {
				t.Errorf("%s -j %d: checkpoint misses/hits = %d/%d, want 5/5 (one miss per point)",
					order.name, workers, st.CkptMisses, st.CkptHits)
			}
		}
	}
}

// TestChainedCheckpointErrorReachesLongerPoint: a longer point fails with
// its predecessor's error value, unchanged.
func TestChainedCheckpointErrorReachesLongerPoint(t *testing.T) {
	short, long := ffTinyOpts(), ffTinyOpts()
	long.FastForwardInsts *= 2
	cfg := sim.Default(sim.PFNone)
	outs := New(1).RunAll([]Job{Solo(cfg, "no-such-kernel", long), Solo(cfg, "no-such-kernel", short)})
	if outs[1].Err == nil || outs[0].Err != outs[1].Err {
		t.Errorf("longer point's error %v, want the predecessor's %v", outs[0].Err, outs[1].Err)
	}
}
