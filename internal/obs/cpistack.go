package obs

// CPI-stack cycle attribution. Every core cycle is charged to exactly one
// bucket — the exact-partition invariant sum(buckets) == cycles holds by
// construction (the core increments exactly one bucket in the same statement
// block that increments Cycles) and is enforced again by the report
// validator (ValidateReport) on every emitted run.
//
// The charging policy is head-of-ROB attribution, the standard CPI-stack
// discipline: a cycle that commits at least one instruction is Base; an
// empty-ROB cycle is charged to whatever starved the front end (branch
// recovery vs. plain fetch latency); a cycle whose ROB head is an in-flight
// load is charged to the memory level servicing it, split further across
// the structural queues the request crossed (LLC bank port, MSHR file, DRAM
// channel) by replaying the load's cache.LoadClass annotation as a piecewise
// walk over the stall interval. See internal/cpu/cpistack.go for the
// charging rules and DESIGN.md §7b for the exactness argument.

// CPIBucket indexes one attribution bucket.
type CPIBucket uint8

// Bucket order is part of the report format: CPIBucketNames and the registry
// metric order follow it.
const (
	CPIBase           CPIBucket = iota // committed work (incl. halted drain)
	CPIFetchStall                      // empty ROB, front end filling the pipe
	CPIBranchRecovery                  // empty ROB inside a mispredict redirect shadow
	CPIStoreQueue                      // head load blocked on store disambiguation
	CPIMSHR                            // head load queued for a free LLC MSHR
	CPIL1DMiss                         // head load serviced by the private L2
	CPILLC                             // head load serviced by the shared LLC
	CPILLCBankQueue                    // head load queued at an LLC bank port
	CPIDRAM                            // head load serviced by DRAM
	CPIDRAMChanQueue                   // head load queued for a DRAM channel
	CPIPrefetchLate                    // head load merged with a late prefetch fill
	NumCPIBuckets
)

// CPIBucketNames are the registry/report names, indexed by CPIBucket.
var CPIBucketNames = [NumCPIBuckets]string{
	"base",
	"fetch_stall",
	"branch_recovery",
	"store_queue",
	"mshr",
	"l1d_miss",
	"llc",
	"llc_bank_queue",
	"dram",
	"dram_chan_queue",
	"pf_late",
}

// CPIStack is one core's bucket counters. It lives inside cpu.Stats so the
// window-reset (Stats{}) and snapshot paths cover it for free.
type CPIStack [NumCPIBuckets]uint64

// Total returns the sum over all buckets; with attribution enabled it equals
// the core's cycle count exactly.
func (s *CPIStack) Total() uint64 {
	var t uint64
	for _, v := range s {
		t += v
	}
	return t
}

// AddStack accumulates another stack into s (harness aggregation).
func (s *CPIStack) AddStack(o *CPIStack) {
	for i := range s {
		s[i] += o[i]
	}
}
