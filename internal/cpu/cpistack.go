package cpu

import (
	"repro/internal/cache"
	"repro/internal/obs"
)

// CPI-stack charging (cfg.CPIStack). Exactly one bucket is charged per
// counted cycle, in the same place Stats.Cycles is incremented, so
// sum(Stats.CPI) == Stats.Cycles holds by construction — the report
// validator re-checks it on every emitted run.
//
// Charging rules (head-of-ROB attribution):
//
//   - a cycle that commits at least one instruction, or that halts the
//     core, is Base;
//   - an empty-ROB cycle inside a redirect shadow (now still before
//     fetchResumeAt + FrontEndDelay, the cycle the first refetched
//     instruction can dispatch) is BranchRecovery; other empty-ROB cycles
//     are FetchStall;
//   - a cycle whose ROB head is a load parked on disambiguation or a cache
//     port is StoreQueue (near-empty by construction: the blocking stores
//     are older than the head, so they have almost always already drained —
//     the bucket catches the port-starvation residue);
//   - a cycle whose ROB head is a load in flight to memory replays the
//     load's cache.LoadClass as a piecewise walk over the stall: the cycles
//     the request spent queued (LLC bank port, then MSHR file, then DRAM
//     channel) charge the queue buckets, and the remainder charges the
//     serving level (L1 → Base, L2 → L1DMiss, LLC/DRAM → their buckets) —
//     or PrefetchLate when the load merged with an in-flight prefetch fill;
//   - every other head state (issued ALU/branch/store latency, an
//     issue-scheduling cycle) is Base. The head is never operand-waiting:
//     its producers are older, hence already committed and broadcast.
//
// Determinism. classify is a pure function of the core state and `now`, and
// the NextEvent no-op contract guarantees that state is frozen across an
// event-loop gap — so AddIdleCycles can replay the per-cycle charges as a
// piecewise-constant segment walk (chargeGap), bit-identical to the naive
// loop charging every cycle.

// chargeCycle charges the cycle just processed by commit(now); committed is
// Stats.Committed sampled before commit ran.
//
//bfetch:hotpath
func (c *Core) chargeCycle(now, committed uint64) {
	if c.Stats.Committed != committed || c.halted {
		c.Stats.CPI[obs.CPIBase]++
		return
	}
	c.Stats.CPI[c.classify(now)]++
}

// classify names the bucket for a cycle that committed nothing.
//
//bfetch:hotpath
func (c *Core) classify(now uint64) obs.CPIBucket {
	if c.count == 0 {
		if c.fetchResumeAt > 0 && now < c.fetchResumeAt+c.cfg.FrontEndDelay {
			return obs.CPIBranchRecovery
		}
		return obs.CPIFetchStall
	}
	e := &c.rob[c.headSlot]
	if e.inst.IsLoad() && e.state == sIssued {
		if bmHas(c.pendBM, e.slot) {
			return obs.CPIStoreQueue
		}
		if e.memClass {
			return c.classifyLoad(e, now)
		}
	}
	return obs.CPIBase
}

// classifyLoad walks the head load's stall offset across its LoadClass
// segments: queue waits first (in hierarchy order), then the serving level.
//
//bfetch:hotpath
func (c *Core) classifyLoad(e *robEntry, now uint64) obs.CPIBucket {
	o := now - e.memStart - 1
	if o < e.cl.BankQ {
		return obs.CPILLCBankQueue
	}
	o -= e.cl.BankQ
	if o < e.cl.MSHRQ {
		return obs.CPIMSHR
	}
	o -= e.cl.MSHRQ
	if o < e.cl.ChanQ {
		return obs.CPIDRAMChanQueue
	}
	return loadLevelBucket(e)
}

//bfetch:hotpath
func loadLevelBucket(e *robEntry) obs.CPIBucket {
	if e.cl.PFLate {
		return obs.CPIPrefetchLate
	}
	switch e.cl.Level {
	case cache.LoadLevelL1:
		return obs.CPIBase
	case cache.LoadLevelL2:
		return obs.CPIL1DMiss
	case cache.LoadLevelLLC:
		return obs.CPILLC
	}
	return obs.CPIDRAM
}

// chargeGap replays the per-cycle charges for the skipped cycles [from, end).
// The NextEvent contract freezes every classify input across the gap except
// `now` itself, which only moves charges across fixed absolute-cycle
// boundaries — so a segment walk reproduces the naive loop's per-cycle
// charges exactly.
//
//bfetch:hotpath
func (c *Core) chargeGap(from, end uint64) {
	if c.count == 0 {
		if c.fetchResumeAt > 0 {
			if b := c.fetchResumeAt + c.cfg.FrontEndDelay; from < b {
				r := min(end, b)
				c.Stats.CPI[obs.CPIBranchRecovery] += r - from
				from = r
			}
		}
		c.Stats.CPI[obs.CPIFetchStall] += end - from
		return
	}
	// Gap cycles have an empty ready bitmap and pendStale clear, so a
	// non-empty ROB's head is an in-flight entry, never a parked load. A
	// parked head has no older stores left, so pendStale was set after its
	// last rejection — by the drain of the last older store, or by its
	// parking for a port — and a retry clears the flag only once the load
	// has left pendBM (a retry short of a port sets it again). So a load in
	// memory walks its segments and anything else (ALU/branch latency, a
	// forwarded load) is Base — exactly classify's verdict for each skipped
	// cycle.
	e := &c.rob[c.headSlot]
	if !e.inst.IsLoad() || e.state != sIssued || !e.memClass {
		c.Stats.CPI[obs.CPIBase] += end - from
		return
	}
	b := e.memStart + 1 + e.cl.BankQ
	if from < b {
		r := min(end, b)
		c.Stats.CPI[obs.CPILLCBankQueue] += r - from
		from = r
	}
	b += e.cl.MSHRQ
	if from < b {
		r := min(end, b)
		c.Stats.CPI[obs.CPIMSHR] += r - from
		from = r
	}
	b += e.cl.ChanQ
	if from < b {
		r := min(end, b)
		c.Stats.CPI[obs.CPIDRAMChanQueue] += r - from
		from = r
	}
	c.Stats.CPI[loadLevelBucket(e)] += end - from
}
