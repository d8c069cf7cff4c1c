package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// sharedOrderDigest is the sha256 of the formatted result of the run in
// TestSharedLevelOrderPinned. It changes with any change to the model; it
// must not change with a refactor of how requests reach the shared levels.
const sharedOrderDigest = "55091c25ab208077d48d301a2780bc6eaa4767cf98009a33722ea37055f7e010"

// TestSharedLevelOrderPinned pins the order in which cores reach the shared
// LLC and DRAM. Cores tick in index order and access the shared levels
// synchronously, so within a cycle core 0's request claims a bank port, an
// MSHR or a DRAM channel slot before core 1's: the tick order is the
// arbitration rule. Four memory-bound cores on the banked scale-out
// configuration contend for banks and channels in the same cycle, and any
// other order moves the counters. CPI attribution is on, so the bank and
// MSHR queue waits charged to each load are pinned too. The time series
// stays off: the formatted result then holds no pointer.
func TestSharedLevelOrderPinned(t *testing.T) {
	cfg := DefaultScale(PFBFetch, 4)
	cfg.CPU.CPIStack = true
	res, err := Run(cfg, []string{"mcf", "lbm", "milc", "libquantum"},
		RunOpts{WarmupInsts: 5_000, MeasureInsts: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	var queued uint64
	for b := 0; b < cfg.LLCBanks; b++ {
		v, _ := res.Metrics.Get(fmt.Sprintf("llc.b%d.queue_cycles", b))
		queued += v
	}
	if queued == 0 || res.DRAM.StallCycles == 0 {
		t.Fatalf("no shared-level contention to pin: bank queue cycles %d, DRAM stall cycles %d",
			queued, res.DRAM.StallCycles)
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", res)))
	if got := hex.EncodeToString(sum[:]); got != sharedOrderDigest {
		t.Errorf("4-core banked result digest %s, want %s", got, sharedOrderDigest)
	}
}
