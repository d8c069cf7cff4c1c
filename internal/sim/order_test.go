package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"
)

// TestSharedLevelOrderPinned pins the order in which cores reach the shared
// LLC and DRAM. Cores tick in index order and access the shared levels
// synchronously, so within a cycle core 0's request claims a bank port, an
// MSHR or a DRAM channel slot before core 1's: the tick order is the
// arbitration rule. Each case runs memory-bound cores that contend for the
// shared levels in the same cycle, so any other order moves the counters:
// four cores on the banked, two-channel scale-out configuration, and two on
// the Table II baseline (unbanked LLC, one DRAM channel). CPI attribution is
// on, so the queue waits charged to each load are pinned too.
//
// Each digest is the sha256 of the result's JSON encoding, which is what
// the benchmark's sim_digest hashes. It changes with any change to the
// model; it must not change with a refactor of how requests reach the
// shared levels.
func TestSharedLevelOrderPinned(t *testing.T) {
	banked := DefaultScale(PFBFetch, 4)
	banked.CPU.CPIStack = true
	tableII := Default(PFSMS)
	tableII.Cores = 2
	tableII.CPU.CPIStack = true
	for _, tc := range []struct {
		name   string
		cfg    Config
		apps   []string
		digest string
	}{
		{"4-core banked B-Fetch", banked, []string{"mcf", "lbm", "milc", "libquantum"},
			"6890a89f211fef63a333bccb3e0d978338db8bbef9f4c4b1cf33476c3a618a9e"},
		{"2-core Table II SMS", tableII, []string{"mcf", "lbm"},
			"a9c7b5ae40b233cb9c16ddd390de61536c7ccb599c9ea5451648ad546013ef0d"},
	} {
		res, err := Run(tc.cfg, tc.apps, RunOpts{WarmupInsts: 5_000, MeasureInsts: 20_000})
		if err != nil {
			t.Fatal(err)
		}
		var queued uint64
		for b := 0; b < tc.cfg.LLCBanks; b++ {
			v, _ := res.Metrics.Get(fmt.Sprintf("llc.b%d.queue_cycles", b))
			queued += v
		}
		if (tc.cfg.LLCBanks > 1 && queued == 0) || res.DRAM.StallCycles == 0 {
			t.Fatalf("%s: no shared-level contention to pin: bank queue cycles %d, DRAM stall cycles %d",
				tc.name, queued, res.DRAM.StallCycles)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		if got := hex.EncodeToString(sum[:]); got != tc.digest {
			t.Errorf("%s: result digest %s, want %s", tc.name, got, tc.digest)
		}
	}
}
