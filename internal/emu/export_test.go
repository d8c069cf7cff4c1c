package emu

import "repro/internal/isa"

// FusedKinds returns every fused micro-op kind the fusion tables can emit.
func FusedKinds() []uint8 {
	var kinds []uint8
	for _, k := range fuseBody {
		kinds = append(kinds, k)
	}
	for _, k := range fuseTriple {
		kinds = append(kinds, k)
	}
	for _, k := range fuseTerm {
		kinds = append(kinds, k)
	}
	return kinds
}

// CompiledKinds counts the micro-op records of each kind in prog's compiled
// form: one per static site.
func CompiledKinds(prog *isa.Program) map[uint8]int {
	sites := make(map[uint8]int)
	for _, o := range Compile(prog).ops {
		sites[o.kind]++
	}
	return sites
}
