package workload

import (
	"fmt"
	"sort"

	"repro/internal/cache"
	"repro/internal/emu"
)

// Multiprogrammed mix selection (§V-A): the paper uses the frequency-of-
// access (FOA) inter-thread contention model of Chandra et al. (HPCA 2005)
// to pick the 29 two-application and 29 four-application mixes with the
// highest shared-cache contention. FOA ranks an application by how often it
// reaches the shared cache; a mix's contention estimate is the combined
// reach-rate of its members.

// Mix is one multiprogrammed workload.
type Mix struct {
	Name  string
	Apps  []string
	Score float64 // combined FOA contention estimate
}

// FOAProfile measures a workload's LLC reach rate: accesses that miss a
// private L1+L2 model per kilo-instruction, measured functionally over
// profileInsts instructions.
func FOAProfile(w Workload, profileInsts uint64) (float64, error) {
	prog, image := w.Build()
	cpu := emu.New(prog, image)

	sink := sinkLevel{}
	l2 := cache.New(cache.Config{Name: "foaL2", Bytes: 256 << 10, Ways: 8, Latency: 1}, sink)
	l1 := cache.New(cache.Config{Name: "foaL1", Bytes: 64 << 10, Ways: 8, Latency: 1}, l2)

	var clock uint64
	cpu.OnRetire = func(rt emu.Retire) {
		if !rt.Inst.IsMem() {
			return
		}
		clock++
		kind := cache.Read
		if rt.Inst.IsStore() {
			kind = cache.Write
		}
		l1.Access(cache.Request{BlockAddr: rt.EA >> 6, Kind: kind}, clock)
	}
	if _, err := cpu.Run(profileInsts); err != nil {
		return 0, fmt.Errorf("workload: FOA profile of %s: %w", w.Name, err)
	}
	if cpu.Retired == 0 {
		return 0, fmt.Errorf("workload: FOA profile of %s retired nothing", w.Name)
	}
	return float64(l2.Stats.Misses) / float64(cpu.Retired) * 1000, nil
}

type sinkLevel struct{}

func (sinkLevel) Access(cache.Request, uint64) uint64 { return 0 }

// FOAProfiles computes the reach rate of every workload.
func FOAProfiles(profileInsts uint64) (map[string]float64, error) {
	out := make(map[string]float64, len(registry))
	for _, w := range All() {
		foa, err := FOAProfile(w, profileInsts)
		if err != nil {
			return nil, err
		}
		out[w.Name] = foa
	}
	return out, nil
}

// SelectMixes returns the `count` n-application mixes with the highest
// combined FOA, enumerated deterministically. Following the paper, 29 mixes
// each of 2 and 4 applications. For n beyond the workload suite size
// (scale-out 64-core mixes), applications repeat: see wideMixes. An n or
// count below 1 selects no mix.
func SelectMixes(n, count int, foa map[string]float64) []Mix {
	if n < 1 || count < 1 {
		return nil
	}
	names := make([]string, 0, len(foa))
	for name := range foa {
		names = append(names, name)
	}
	sort.Strings(names)
	if n > len(names) {
		return wideMixes(n, count, names, foa)
	}

	var mixes []Mix
	var combo func(start int, cur []string, score float64)
	combo = func(start int, cur []string, score float64) {
		if len(cur) == n {
			mixes = append(mixes, Mix{
				Apps:  append([]string(nil), cur...),
				Score: score,
			})
			return
		}
		for i := start; i < len(names); i++ {
			combo(i+1, append(cur, names[i]), score+foa[names[i]])
		}
	}
	combo(0, nil, 0)

	sort.Slice(mixes, func(i, j int) bool {
		if mixes[i].Score != mixes[j].Score {
			return mixes[i].Score > mixes[j].Score
		}
		return fmt.Sprint(mixes[i].Apps) < fmt.Sprint(mixes[j].Apps)
	})
	if count > len(mixes) {
		count = len(mixes)
	}
	mixes = mixes[:count]
	for i := range mixes {
		mixes[i].Name = fmt.Sprintf("mix%d", i+1)
	}
	return mixes
}

// wideMixes builds n-application mixes when n exceeds the workload suite:
// applications are ranked by FOA (descending, names ascending on ties) and
// tiled round-robin, with mix k starting the tiling k positions into the
// ranking. Every application therefore appears ~n/len(names) times per mix,
// mixes differ in their per-core placement, and the highest-contention
// (lowest-k) mixes lead — a deterministic scale-out analogue of the paper's
// pick-the-most-contended-combinations rule.
func wideMixes(n, count int, names []string, foa map[string]float64) []Mix {
	ranked := append([]string(nil), names...)
	sort.Slice(ranked, func(i, j int) bool {
		if foa[ranked[i]] != foa[ranked[j]] {
			return foa[ranked[i]] > foa[ranked[j]]
		}
		return ranked[i] < ranked[j]
	})
	if count > len(ranked) {
		count = len(ranked)
	}
	mixes := make([]Mix, 0, count)
	for k := 0; k < count; k++ {
		apps := make([]string, n)
		score := 0.0
		for c := 0; c < n; c++ {
			apps[c] = ranked[(k+c)%len(ranked)]
			score += foa[apps[c]]
		}
		mixes = append(mixes, Mix{Name: fmt.Sprintf("mix%d", k+1), Apps: apps, Score: score})
	}
	return mixes
}
