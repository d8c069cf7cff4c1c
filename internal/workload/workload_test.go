package workload

import (
	"testing"

	"repro/internal/emu"
	"repro/internal/mem"
)

const probeInsts = 120_000

type profile struct {
	loads, stores, branches, taken uint64
	blocks                         map[uint64]bool
}

func profileWorkload(t *testing.T, w Workload, insts uint64) profile {
	t.Helper()
	prog, image := w.Build()
	if err := prog.Validate(); err != nil {
		t.Fatalf("%s: invalid program: %v", w.Name, err)
	}
	p := profile{blocks: map[uint64]bool{}}
	cpu := emu.New(prog, image)
	cpu.OnRetire = func(r emu.Retire) {
		switch {
		case r.Inst.IsLoad():
			p.loads++
			p.blocks[r.EA>>6] = true
		case r.Inst.IsStore():
			p.stores++
			p.blocks[r.EA>>6] = true
		case r.Inst.IsControl():
			p.branches++
			if r.Taken {
				p.taken++
			}
		}
	}
	n, err := cpu.Run(insts)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	if n < insts {
		t.Fatalf("%s: halted after %d instructions (outer loop too short)", w.Name, n)
	}
	return p
}

func TestRegistryComplete(t *testing.T) {
	ws := All()
	if len(ws) != 18 {
		t.Fatalf("registry holds %d workloads, want 18", len(ws))
	}
	want := []string{
		"astar", "bwaves", "bzip2", "cactusADM", "calculix", "gamess",
		"gromacs", "h264ref", "hmmer", "lbm", "leslie3d", "libquantum",
		"mcf", "milc", "sjeng", "soplex", "sphinx", "zeusmp",
	}
	for i, name := range want {
		if ws[i].Name != name {
			t.Errorf("workload %d = %s, want %s", i, ws[i].Name, name)
		}
	}
	if _, err := ByName("mcf"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("nonesuch"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestAllWorkloadsExecute(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			p := profileWorkload(t, w, probeInsts)
			memOps := p.loads + p.stores
			if memOps == 0 {
				t.Fatal("no memory operations")
			}
			if p.branches == 0 {
				t.Fatal("no control instructions")
			}
			// Every kernel needs loads for a data-prefetching study; even
			// the compute-bound ones probe their tables.
			if p.loads*20 < uint64(probeInsts) {
				t.Errorf("load fraction = %.1f%%, want ≥ 5%%",
					100*float64(p.loads)/float64(probeInsts))
			}
		})
	}
}

func TestWorkingSetsMatchCharacter(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			p := profileWorkload(t, w, probeInsts)
			touched := len(p.blocks) * 64
			// Streaming kernels advance ≈ one new block per handful of
			// iterations, so the floor is calibrated to the probe length.
			if w.MemoryIntensive && touched < 100<<10 {
				t.Errorf("memory-intensive kernel touched only %d KB in %d insts",
					touched>>10, probeInsts)
			}
			if !w.MemoryIntensive && touched > 2<<20 {
				t.Errorf("cache-resident kernel touched %d MB", touched>>20)
			}
		})
	}
}

func TestBuildsAreDeterministic(t *testing.T) {
	for _, w := range All()[:4] {
		p1, m1 := w.Build()
		p2, m2 := w.Build()
		if p1.Len() != p2.Len() {
			t.Fatalf("%s: program lengths differ", w.Name)
		}
		for i := range p1.Insts {
			if p1.Insts[i] != p2.Insts[i] {
				t.Fatalf("%s: instruction %d differs", w.Name, i)
			}
		}
		if !mem.Equal(m1, m2) {
			t.Fatalf("%s: memory images differ", w.Name)
		}
	}
}

func TestFOAOrdering(t *testing.T) {
	// The LLC reach rate must separate the memory-intensive kernels from
	// the cache-resident ones.
	mcf, err := ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	gamess, err := ByName("gamess")
	if err != nil {
		t.Fatal(err)
	}
	foaMcf, err := FOAProfile(mcf, probeInsts)
	if err != nil {
		t.Fatal(err)
	}
	foaGamess, err := FOAProfile(gamess, probeInsts)
	if err != nil {
		t.Fatal(err)
	}
	if foaMcf < 10*foaGamess {
		t.Errorf("FOA(mcf)=%.2f not ≫ FOA(gamess)=%.2f", foaMcf, foaGamess)
	}
}

func TestSelectMixes(t *testing.T) {
	foa := map[string]float64{
		"a": 10, "b": 8, "c": 5, "d": 1, "e": 0.1, "f": 0.01,
	}
	mixes := SelectMixes(2, 3, foa)
	if len(mixes) != 3 {
		t.Fatalf("got %d mixes", len(mixes))
	}
	// Highest-contention pair first.
	if mixes[0].Apps[0] != "a" || mixes[0].Apps[1] != "b" {
		t.Errorf("top mix = %v", mixes[0].Apps)
	}
	if mixes[0].Score != 18 {
		t.Errorf("top score = %v", mixes[0].Score)
	}
	if mixes[0].Name != "mix1" || mixes[2].Name != "mix3" {
		t.Errorf("names = %s, %s", mixes[0].Name, mixes[2].Name)
	}
	// Scores must be non-increasing.
	for i := 1; i < len(mixes); i++ {
		if mixes[i].Score > mixes[i-1].Score {
			t.Error("mixes not sorted by contention")
		}
	}
	// Four-app mixes.
	m4 := SelectMixes(4, 2, foa)
	if len(m4) != 2 || len(m4[0].Apps) != 4 {
		t.Fatalf("mix-4 selection = %v", m4)
	}
	// Deterministic across calls.
	again := SelectMixes(2, 3, foa)
	for i := range mixes {
		if mixes[i].Name != again[i].Name || mixes[i].Score != again[i].Score {
			t.Error("selection not deterministic")
		}
	}
	// A count or size below 1 selects nothing, for suite-sized and wide
	// mixes alike.
	for _, c := range []struct{ n, count int }{
		{2, 0}, {2, -1}, {8, 0}, {8, -1}, {0, 3}, {-1, 3},
	} {
		if got := SelectMixes(c.n, c.count, foa); len(got) != 0 {
			t.Errorf("SelectMixes(%d, %d) = %v, want no mix", c.n, c.count, got)
		}
	}
}
