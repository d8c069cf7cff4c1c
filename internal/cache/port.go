// Deferred shared-level access. A SharedPort sits between one core's private
// L2 and the shared LLC. During a cycle the core runs against private state
// only: every request bound for the shared levels is queued, and the port
// hands back a *pending completion time* — a sentinel carrying the request's
// ticket number. At end of cycle the simulator services all ports in
// core-index order, replaying the queued requests into the LLC/DRAM and
// patching every location that captured a sentinel with the real completion
// cycle.
//
// Why this is exact. The only state a pending completion time can reach
// before the port is serviced is (a) the issuing load's ROB doneAt and
// (b) private-cache block readyAt fields — and both are only *compared
// against the clock* at cycles strictly after the current one (a sentinel
// is numerically huge, so mid-cycle "still in flight?" checks see exactly
// what a synchronous future completion would look like). The simulator
// ticks cores in index order, so servicing ports in index order replays
// requests into the shared levels in precisely the order the synchronous
// model issued them: identical bank/channel state transitions, identical
// completion times, bit-identical results. The service order, not the tick
// order, is what fixes bank and channel arbitration.
package cache

// PendingBase tags a completion time as unresolved: the low bits are the
// ticket of the queued request that will produce the real value. Simulated
// clocks stay far below 2^62, so the bit is unambiguous.
const PendingBase = uint64(1) << 62

// IsPending reports whether t is a pending-tagged completion time.
//
//bfetch:hotpath
func IsPending(t uint64) bool { return t >= PendingBase }

type portReq struct {
	req    Request
	at     uint64
	ticket int32 // -1: posted write, no ticket
}

type portPatch struct {
	target *uint64
	expect uint64 // sentinel the target must still hold to be patched
}

// SharedPort queues one core's shared-level traffic for end-of-cycle
// service. It implements Level so it can stand in as the L2's next level.
type SharedPort struct {
	shared Level // the LLC (or DRAM in LLC-less configs)

	reqs    []portReq
	tickets int32
	fills   []uint64 // resolved completion time per ticket
	patches []portPatch
}

// NewSharedPort builds a port in front of the shared level.
func NewSharedPort(shared Level) *SharedPort {
	return &SharedPort{
		shared:  shared,
		reqs:    make([]portReq, 0, 64),
		fills:   make([]uint64, 0, 32),
		patches: make([]portPatch, 0, 64),
	}
}

// Access implements Level: the request is queued, not serviced. Reads and
// prefetch fills return a pending-tagged ticket; writebacks are posted and
// return immediately (nothing ever waits on them).
//
//bfetch:hotpath
func (p *SharedPort) Access(req Request, now uint64) uint64 {
	if req.Kind == Write {
		p.reqs = append(p.reqs, portReq{req: req, at: now, ticket: -1})
		return now
	}
	t := p.tickets
	p.tickets++
	p.reqs = append(p.reqs, portReq{req: req, at: now, ticket: t})
	return PendingBase | uint64(t)
}

// Defer registers target to receive the real completion cycle of the pending
// request identified by sentinel — but only if target still holds sentinel
// at service time, so a block evicted and refilled within the same cycle is
// never clobbered.
//
//bfetch:hotpath
func (p *SharedPort) Defer(target *uint64, sentinel uint64) {
	p.patches = append(p.patches, portPatch{target: target, expect: sentinel})
}

// Pending reports whether the port holds unserviced requests or patches.
func (p *SharedPort) Pending() bool { return len(p.reqs) > 0 || len(p.patches) > 0 }

// Service replays the queued requests into the shared level in arrival
// order, then patches every registered location that still holds its
// sentinel. The caller (the simulator's end-of-cycle phase) invokes Service
// on all ports in core-index order — that ordering is the determinism
// contract.
//
//bfetch:hotpath
func (p *SharedPort) Service() {
	if len(p.reqs) == 0 {
		return
	}
	p.fills = p.fills[:0]
	for i := range p.reqs {
		r := &p.reqs[i]
		if r.ticket < 0 {
			if nc, ok := p.shared.(*Cache); ok {
				nc.WritebackInstall(r.req, r.at)
			} else {
				p.shared.Access(r.req, r.at)
			}
			continue
		}
		p.fills = append(p.fills, p.shared.Access(r.req, r.at))
	}
	for i := range p.patches {
		pa := &p.patches[i]
		if *pa.target == pa.expect {
			*pa.target = p.fills[pa.expect&^PendingBase]
		}
	}
	p.reqs = p.reqs[:0]
	p.patches = p.patches[:0]
	p.tickets = 0
}
