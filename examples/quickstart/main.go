// Quickstart: assemble a small streaming kernel in the toy ISA, wrap it as a
// workload, and measure it with and without B-Fetch on the paper's Table II
// baseline system.
package main

import (
	"fmt"
	"log"

	bfetch "repro"
)

// A 4 MB unit-stride reduction: the simplest possible prefetchable loop.
const kernel = `
    movi r16, 0x100000     ; array base
    movi r10, 524288       ; words (4 MB)
    movi r5, 0             ; sum
loop:
    ld   r1, 0(r16)
    add  r5, r5, r1
    addi r16, r16, 8
    addi r10, r10, -1
    bnez r10, loop
    halt
`

func main() {
	prog, err := bfetch.Assemble(kernel)
	if err != nil {
		log.Fatal(err)
	}
	w := bfetch.NewWorkload("sum4mb", "unit-stride reduction", "streaming", true,
		func() (*bfetch.Program, *bfetch.Memory) {
			// The array reads as zeros; only the access pattern matters.
			return prog, bfetch.NewMemory()
		})

	opts := bfetch.RunOpts{WarmupInsts: 50_000, MeasureInsts: 200_000}
	var baselineIPC float64
	for _, kind := range []bfetch.PrefetcherKind{bfetch.PFNone, bfetch.PFBFetch} {
		cfg := bfetch.DefaultConfig(kind)
		sys, err := bfetch.NewSystem(cfg, []bfetch.Workload{w})
		if err != nil {
			log.Fatal(err)
		}
		if err := sys.Run(opts.WarmupInsts, 100_000_000); err != nil {
			log.Fatal(err)
		}
		sys.ResetStats()
		if err := sys.Run(opts.MeasureInsts, 100_000_000); err != nil {
			log.Fatal(err)
		}
		res := sys.Snapshot()

		fmt.Printf("prefetcher=%-8s IPC=%.3f  L1D miss=%.2f%%  prefetches issued=%d useful=%d\n",
			kind, res.IPC[0], 100*res.L1D[0].MissRate(),
			res.L1D[0].PrefetchFills, res.L1D[0].PrefetchUseful)
		if kind == bfetch.PFNone {
			baselineIPC = res.IPC[0]
		} else {
			fmt.Printf("\nB-Fetch speedup over baseline: %.2fx\n", res.IPC[0]/baselineIPC)
		}
	}
}
