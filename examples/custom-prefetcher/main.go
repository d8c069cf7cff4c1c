// Custom-prefetcher demonstrates the extension surface: implement the
// Prefetcher interface, plug it into a system through the PFCustom factory
// hook, and compare it against the built-ins. The example engine is a tiny
// next-two-lines prefetcher written against the same hooks B-Fetch uses.
package main

import (
	"fmt"
	"log"

	bfetch "repro"
)

// nextTwo prefetches the two sequentially following cache blocks on every
// demand miss. Embedding PrefetcherBase provides no-op implementations of
// the hooks it does not use (decode, commit, feedback).
type nextTwo struct {
	bfetch.PrefetcherBase
	pending []bfetch.PrefetchRequest
}

func (p *nextTwo) Name() string { return "next-two" }

func (p *nextTwo) OnAccess(a bfetch.AccessInfo) {
	if a.Hit || a.Write {
		return
	}
	block := a.Addr &^ 63
	p.pending = append(p.pending,
		bfetch.PrefetchRequest{Addr: block + 64, LoadPC: a.PC},
		bfetch.PrefetchRequest{Addr: block + 128, LoadPC: a.PC},
	)
}

// AppendTick drains up to two requests per cycle into the caller's buffer,
// like a real prefetch queue. (PrefetcherBase's Idle reports false, so the
// event-driven clock keeps ticking this engine whenever its core runs — a
// custom Idle override returning len(p.pending) == 0 would let the simulator
// skip cycles while the queue is empty.)
func (p *nextTwo) AppendTick(dst []bfetch.PrefetchRequest, now uint64) []bfetch.PrefetchRequest {
	n := min(2, len(p.pending))
	dst = append(dst, p.pending[:n]...)
	p.pending = p.pending[:copy(p.pending, p.pending[n:])]
	return dst
}

func (p *nextTwo) StorageBits() int { return 64 * 42 } // its queue

func main() {
	cfg := bfetch.DefaultConfig(bfetch.PFCustom)
	cfg.Factory = func(_ *bfetch.BranchPredictor, _ *bfetch.BranchConfidence) bfetch.Prefetcher {
		return &nextTwo{}
	}

	opts := bfetch.RunOpts{WarmupInsts: 50_000, MeasureInsts: 150_000}
	app := "libquantum"

	base, err := bfetch.RunSolo(bfetch.DefaultConfig(bfetch.PFNone), app, opts)
	if err != nil {
		log.Fatal(err)
	}
	custom, err := bfetch.RunSolo(cfg, app, opts)
	if err != nil {
		log.Fatal(err)
	}
	bf, err := bfetch.RunSolo(bfetch.DefaultConfig(bfetch.PFBFetch), app, opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("workload %s\n", app)
	fmt.Printf("  baseline  IPC %.3f\n", base.IPC[0])
	fmt.Printf("  next-two  IPC %.3f (%.2fx) — issued %d, useful %d\n",
		custom.IPC[0], custom.IPC[0]/base.IPC[0],
		custom.L1D[0].PrefetchFills, custom.L1D[0].PrefetchUseful)
	fmt.Printf("  B-Fetch   IPC %.3f (%.2fx) — issued %d, useful %d\n",
		bf.IPC[0], bf.IPC[0]/base.IPC[0],
		bf.L1D[0].PrefetchFills, bf.L1D[0].PrefetchUseful)
}
