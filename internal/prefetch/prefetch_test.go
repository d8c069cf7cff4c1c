package prefetch

import (
	"reflect"
	"testing"
	"testing/quick"
)

func drain(p Prefetcher, cycles int) []Request {
	var all []Request
	for i := 0; i < cycles; i++ {
		all = p.AppendTick(all, uint64(i))
	}
	return all
}

func TestQueueDedupAndCapacity(t *testing.T) {
	q := NewQueue(4, 2)
	q.Push(Request{Addr: 0x1000})
	q.Push(Request{Addr: 0x1008}) // same block → dup
	q.Push(Request{Addr: 0x1040})
	q.Push(Request{Addr: 0x1080})
	q.Push(Request{Addr: 0x10C0})
	q.Push(Request{Addr: 0x1100}) // full → dropped
	if q.Len() != 4 {
		t.Errorf("len = %d, want 4", q.Len())
	}
	if q.DroppedDup != 1 || q.DroppedFull != 1 {
		t.Errorf("dup=%d full=%d", q.DroppedDup, q.DroppedFull)
	}
}

func TestQueuePerCycleLimit(t *testing.T) {
	q := NewQueue(10, 2)
	for i := 0; i < 5; i++ {
		q.Push(Request{Addr: uint64(i * 64)})
	}
	if got := len(q.AppendPop(nil)); got != 2 {
		t.Errorf("first pop = %d", got)
	}
	if got := len(q.AppendPop(nil)); got != 2 {
		t.Errorf("second pop = %d", got)
	}
	if got := len(q.AppendPop(nil)); got != 1 {
		t.Errorf("third pop = %d", got)
	}
	if q.AppendPop(nil) != nil {
		t.Error("empty queue returned requests")
	}
}

func TestQueueDedupClearsAfterPop(t *testing.T) {
	q := NewQueue(4, 4)
	q.Push(Request{Addr: 0x40})
	q.AppendPop(nil)
	q.Push(Request{Addr: 0x40})
	if q.Len() != 1 {
		t.Error("block re-pushed after pop was treated as duplicate")
	}
}

func TestStrideDetectsStream(t *testing.T) {
	s := NewStride(DefaultStrideConfig())
	pc := uint64(0x1000)
	// Three accesses with stride 64 confirm the pattern; subsequent
	// accesses emit degree-8 prefetches.
	for i := 0; i < 6; i++ {
		s.OnAccess(AccessInfo{PC: pc, Addr: uint64(0x10000 + i*64)})
	}
	reqs := drain(s, 64)
	if len(reqs) == 0 {
		t.Fatal("no prefetches for a perfect stride")
	}
	// Requests are emitted as the stream trains, so early ones may trail the
	// final head; each must be stride-aligned, ahead of the stream start,
	// and the engine must reach degree-8 past the final access.
	var maxAddr uint64
	for _, r := range reqs {
		if r.Addr <= 0x10000 {
			t.Errorf("prefetch %#x behind stream start", r.Addr)
		}
		if (r.Addr-0x10000)%64 != 0 {
			t.Errorf("prefetch %#x off-stride", r.Addr)
		}
		if r.LoadPC != pc {
			t.Errorf("request attributed to %#x", r.LoadPC)
		}
		if r.Addr > maxAddr {
			maxAddr = r.Addr
		}
	}
	if want := uint64(0x10000 + (5+8)*64); maxAddr != want {
		t.Errorf("furthest prefetch = %#x, want %#x (degree 8 past head)", maxAddr, want)
	}
}

func TestStrideNegativeStride(t *testing.T) {
	s := NewStride(DefaultStrideConfig())
	pc := uint64(0x2000)
	base := uint64(0x40000)
	for i := 0; i < 6; i++ {
		s.OnAccess(AccessInfo{PC: pc, Addr: base - uint64(i*128)})
	}
	reqs := drain(s, 64)
	if len(reqs) == 0 {
		t.Fatal("no prefetches for negative stride")
	}
	var minAddr uint64 = 1 << 62
	for _, r := range reqs {
		if r.Addr >= base {
			t.Errorf("prefetch %#x not below stream start %#x", r.Addr, base)
		}
		if r.Addr < minAddr {
			minAddr = r.Addr
		}
	}
	if want := base - (5+8)*128; minAddr != want {
		t.Errorf("deepest prefetch = %#x, want %#x", minAddr, want)
	}
}

func TestStrideIgnoresIrregular(t *testing.T) {
	s := NewStride(DefaultStrideConfig())
	pc := uint64(0x3000)
	addrs := []uint64{0x1000, 0x9040, 0x2300, 0x7780, 0x100, 0x5000}
	for _, a := range addrs {
		s.OnAccess(AccessInfo{PC: pc, Addr: a})
	}
	if reqs := drain(s, 64); len(reqs) != 0 {
		t.Errorf("irregular pattern produced %d prefetches", len(reqs))
	}
}

func TestStrideIgnoresStores(t *testing.T) {
	s := NewStride(DefaultStrideConfig())
	for i := 0; i < 6; i++ {
		s.OnAccess(AccessInfo{PC: 0x4000, Addr: uint64(i * 64), Write: true})
	}
	if reqs := drain(s, 64); len(reqs) != 0 {
		t.Error("stores trained the stride table")
	}
}

func TestStrideZeroStrideNoPrefetch(t *testing.T) {
	s := NewStride(DefaultStrideConfig())
	for i := 0; i < 6; i++ {
		s.OnAccess(AccessInfo{PC: 0x5000, Addr: 0x8000})
	}
	if reqs := drain(s, 64); len(reqs) != 0 {
		t.Error("zero stride produced prefetches")
	}
}

func TestNextN(t *testing.T) {
	p := NewNextN(4)
	p.OnAccess(AccessInfo{PC: 0x100, Addr: 0x1008, Hit: false})
	reqs := drain(p, 8)
	if len(reqs) != 4 {
		t.Fatalf("got %d requests, want 4", len(reqs))
	}
	for i, r := range reqs {
		want := uint64(0x1000 + (i+1)*64)
		if r.Addr != want {
			t.Errorf("req %d = %#x, want %#x", i, r.Addr, want)
		}
	}
	// Hits produce nothing.
	p.OnAccess(AccessInfo{PC: 0x100, Addr: 0x2000, Hit: true})
	if reqs := drain(p, 8); len(reqs) != 0 {
		t.Error("hit produced prefetches")
	}
}

func TestNoneIsSilent(t *testing.T) {
	var p None
	p.OnAccess(AccessInfo{Addr: 1})
	p.OnDecode(DecodeInfo{})
	p.OnCommit(CommitInfo{})
	if p.AppendTick(nil, 0) != nil || p.StorageBits() != 0 || p.Name() != "none" {
		t.Error("None is not a no-op")
	}
	if !p.Idle() {
		t.Error("None should always be idle")
	}
}

// Property: the queue never exceeds capacity and never holds two requests
// for the same block.
func TestQuickQueueInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		q := NewQueue(8, 3)
		for _, op := range ops {
			if op%5 == 0 {
				q.AppendPop(nil)
				continue
			}
			q.Push(Request{Addr: uint64(op) * 8})
			if q.Len() > 8 {
				return false
			}
			seen := map[uint64]bool{}
			for i := 0; i < q.n; i++ {
				ba := q.ring[(q.head+i)%len(q.ring)].Addr >> 6
				if seen[ba] {
					return false
				}
				seen[ba] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// mapQueue is the queue's reference model: a slice in FIFO order and a map
// of pending blocks.
type mapQueue struct {
	buf                []Request
	inQ                map[uint64]bool
	capacity, perCycle int
	enq, full, dup     uint64
}

func (m *mapQueue) push(r Request) {
	switch ba := r.Addr >> 6; {
	case m.inQ[ba]:
		m.dup++
	case len(m.buf) >= m.capacity:
		m.full++
	default:
		m.buf = append(m.buf, r)
		m.inQ[ba] = true
		m.enq++
	}
}

func (m *mapQueue) pop() []Request {
	n := min(m.perCycle, len(m.buf))
	out := append([]Request(nil), m.buf[:n]...)
	for _, r := range out {
		delete(m.inQ, r.Addr>>6)
	}
	m.buf = m.buf[n:]
	return out
}

// Property: the ring-and-table queue pops exactly what the map-based model
// pops, and counts the same enqueues and drops, under any push/pop mix —
// dense block addresses force long probe runs and backward shifts.
func TestQuickQueueMatchesMapModel(t *testing.T) {
	f := func(ops []uint16, capacity, perCycle uint8) bool {
		cp, pc := int(capacity%20), int(perCycle%4)+1
		q := NewQueue(cp, pc)
		m := &mapQueue{inQ: map[uint64]bool{}, capacity: cp, perCycle: pc}
		for _, op := range ops {
			if op%4 == 0 {
				if !reflect.DeepEqual(q.AppendPop(nil), m.pop()) {
					return false
				}
				continue
			}
			r := Request{Addr: uint64(op%64) << 6, LoadPC: uint64(op)}
			q.Push(r)
			m.push(r)
		}
		return q.Len() == len(m.buf) && q.Enqueued == m.enq &&
			q.DroppedFull == m.full && q.DroppedDup == m.dup
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
