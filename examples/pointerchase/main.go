// Pointerchase compares all four prefetchers on the suite's irregular
// workloads — the access patterns the paper's introduction motivates:
// miss-driven prefetchers have nothing to train on when addresses come from
// loaded pointers, while B-Fetch can still cover a record's other blocks and
// any regular streams interleaved with the chase.
package main

import (
	"fmt"
	"log"

	bfetch "repro"
)

func main() {
	apps := []string{"mcf", "astar", "milc", "gromacs", "soplex"}
	kinds := []bfetch.PrefetcherKind{
		bfetch.PFNone, bfetch.PFStride, bfetch.PFSMS, bfetch.PFBFetch,
	}
	opts := bfetch.RunOpts{WarmupInsts: 50_000, MeasureInsts: 150_000}

	fmt.Printf("%-10s", "workload")
	for _, k := range kinds[1:] {
		fmt.Printf("  %-18s", k)
	}
	fmt.Println("\n" + "(speedup over no-prefetch; accuracy = useful / issued)")

	for _, app := range apps {
		base, err := bfetch.RunSolo(bfetch.DefaultConfig(bfetch.PFNone), app, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s", app)
		for _, k := range kinds[1:] {
			res, err := bfetch.RunSolo(bfetch.DefaultConfig(k), app, opts)
			if err != nil {
				log.Fatal(err)
			}
			speedup := res.IPC[0] / base.IPC[0]
			issued := res.L1D[0].PrefetchFills
			acc := 0.0
			if issued > 0 {
				acc = float64(res.L1D[0].PrefetchUseful) / float64(issued)
			}
			fmt.Printf("  %5.2fx (acc %3.0f%%) ", speedup, 100*acc)
		}
		fmt.Println()
	}
	fmt.Println("\nNote how accuracy separates the prefetchers even where speedups")
	fmt.Println("are close: inaccurate prefetches become pollution under sharing")
	fmt.Println("(see the multiprogram example).")
}
