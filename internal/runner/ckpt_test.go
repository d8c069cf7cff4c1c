package runner

import (
	"reflect"
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
