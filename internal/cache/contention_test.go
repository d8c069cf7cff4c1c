package cache

// Deterministic-contention tests for the scale-out shared-memory models.
// The banked LLC and the channeled DRAM promise two things: (1) requests to
// DIFFERENT banks/channels are fully independent — reordering them across
// one another changes no grant or latency — and (2) requests to the SAME
// bank/channel are served FCFS in arrival order, with occupancy (bank busy
// time, MSHRs, channel in-flight slots) applied exactly. The simulator
// pins arrival order by ticking cores in index order, each reaching the
// shared levels synchronously; these tests pin the models' side of the
// contract. They read the per-bank and per-channel counters by the metric
// names the experiments read (llc.bN.*, dram.chN.*).

import (
	"reflect"
	"testing"

	"repro/internal/obs"
)

// metrics registers one level's counters under prefix in a fresh registry
// and reads them back.
func metrics(register func(*obs.Registry, string), prefix string) obs.Snapshot {
	reg := obs.NewRegistry()
	register(reg, prefix)
	return reg.Snapshot()
}

// metric returns the named sample, failing the test if it is not exported.
func metric(t *testing.T, s obs.Snapshot, name string) uint64 {
	t.Helper()
	v, ok := s.Get(name)
	if !ok {
		t.Fatalf("metric %s not exported", name)
	}
	return v
}

func newChanneledDRAM(t *testing.T, channels, inflight int) *DRAM {
	t.Helper()
	d := NewDRAM()
	d.Latency = 100
	d.CyclesPerFill = 4
	if err := d.SetChannels(channels, inflight); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDRAMChannelPermutationInvariance issues the same request set — two
// reads to each of four channels, all arriving at cycle 0 — in several
// cross-channel interleavings that preserve per-channel order, and requires
// identical per-address completion times and counters, per channel and in
// aggregate.
func TestDRAMChannelPermutationInvariance(t *testing.T) {
	// Channel = block address & 3; addr and addr+8 share a channel.
	orders := map[string][]uint64{
		"channel-major": {0, 8, 1, 9, 2, 10, 3, 11},
		"round-robin":   {0, 1, 2, 3, 8, 9, 10, 11},
		"reversed":      {3, 11, 2, 10, 1, 9, 0, 8},
	}
	type outcome struct {
		done    map[uint64]uint64
		metrics obs.Snapshot
	}
	results := map[string]outcome{}
	for name, order := range orders {
		d := newChanneledDRAM(t, 4, 2)
		o := outcome{done: map[uint64]uint64{}}
		for _, addr := range order {
			o.done[addr] = d.Access(Request{BlockAddr: addr, Kind: Read}, 0)
		}
		o.metrics = metrics(d.RegisterObs, "dram.")
		results[name] = o
	}
	ref := results["channel-major"]
	for name, o := range results {
		for addr, done := range ref.done {
			if o.done[addr] != done {
				t.Errorf("%s: addr %d completes at %d, channel-major at %d", name, addr, o.done[addr], done)
			}
		}
		if !reflect.DeepEqual(o.metrics, ref.metrics) {
			t.Errorf("%s: DRAM counters diverge: %+v vs %+v", name, o.metrics, ref.metrics)
		}
	}
}

// TestDRAMChannelFCFSInflight pins the exact same-channel timing: the bus
// serializes issues at CyclesPerFill apart, and once both in-flight slots
// are claimed, the third read waits for the earliest fill to drain.
func TestDRAMChannelFCFSInflight(t *testing.T) {
	d := newChanneledDRAM(t, 2, 2)
	// Three reads to channel 0, all arriving at cycle 0.
	// r1: bus at 0, slot 0 until 100            -> done 100
	// r2: bus at 4 (queued), slot 1 until 104   -> done 104
	// r3: bus at 8, both slots busy, waits for
	//     slot 0 to drain at 100, refills it    -> done 200
	want := []uint64{100, 104, 200}
	for i, w := range want {
		if got := d.Access(Request{BlockAddr: 0, Kind: Read}, 0); got != w {
			t.Errorf("read %d: done at %d, want %d", i+1, got, w)
		}
	}
	m := metrics(d.RegisterObs, "dram.")
	if n := metric(t, m, "dram.ch0.transfers"); n != 3 {
		t.Errorf("channel 0 carried %d transfers, want 3", n)
	}
	if metric(t, m, "dram.ch1.transfers") != 0 {
		t.Errorf("channel 1 saw traffic for channel-0 addresses")
	}
	// Writebacks are posted: they claim the bus and a slot on their channel
	// (addr 1 -> the idle channel 1) but return at their issue cycle —
	// nothing waits on them.
	if got := d.Access(Request{BlockAddr: 1, Kind: Write}, 0); got != 0 {
		t.Errorf("posted writeback returned %d, want its issue cycle 0", got)
	}
}

// TestDRAMOneChannelMetrics pins that the Table II controller exports only
// the aggregate counters: its one channel's series would repeat them.
func TestDRAMOneChannelMetrics(t *testing.T) {
	for _, d := range []*DRAM{NewDRAM(), newChanneledDRAM(t, 1, 4)} {
		d.Access(Request{BlockAddr: 3, Kind: Read}, 0)
		m := metrics(d.RegisterObs, "dram.")
		if _, ok := m.Get("dram.ch0.transfers"); ok || len(m.Samples) != 4 {
			t.Errorf("one-channel DRAM exports %+v, want only the 4 aggregate counters", m.Samples)
		}
		if metric(t, m, "dram.demand_fills") != 1 {
			t.Errorf("one-channel DRAM lost its demand fill: %+v", m.Samples)
		}
	}
}

// TestLLCBankPermutationInvariance runs the banked-LLC analogue over a
// channeled DRAM with one channel per bank (so bank independence holds end
// to end): two demand misses per bank, arriving at cycle 0 in different
// cross-bank interleavings, must produce identical per-address latencies and
// counters, per bank and in aggregate.
func TestLLCBankPermutationInvariance(t *testing.T) {
	// Bank = block address & 3 = channel; addr and addr+8 share a bank.
	orders := map[string][]uint64{
		"bank-major":  {0, 8, 1, 9, 2, 10, 3, 11},
		"round-robin": {0, 1, 2, 3, 8, 9, 10, 11},
		"reversed":    {3, 11, 2, 10, 1, 9, 0, 8},
	}
	type outcome struct {
		done    map[uint64]uint64
		metrics obs.Snapshot
	}
	results := map[string]outcome{}
	for name, order := range orders {
		llc := New(Config{
			Name: "L3", Bytes: 1 << 20, Ways: 16, Latency: 10,
			Banks: 4, BankBusy: 2, MSHRs: 4,
		}, newChanneledDRAM(t, 4, 0))
		o := outcome{done: map[uint64]uint64{}}
		for _, addr := range order {
			o.done[addr] = llc.Access(Request{BlockAddr: addr, Kind: Read}, 0)
		}
		o.metrics = metrics(llc.RegisterObs, "llc.")
		results[name] = o
	}
	ref := results["bank-major"]
	for name, o := range results {
		for addr, done := range ref.done {
			if o.done[addr] != done {
				t.Errorf("%s: addr %d completes at %d, bank-major at %d", name, addr, o.done[addr], done)
			}
		}
		if !reflect.DeepEqual(o.metrics, ref.metrics) {
			t.Errorf("%s: LLC counters diverge: %+v vs %+v", name, o.metrics, ref.metrics)
		}
	}
}

// TestLLCBankQueueingAndMSHR pins the exact same-bank arithmetic: same-cycle
// arrivals queue behind the bank port at BankBusy apart, and a miss that
// finds every MSHR claimed waits for the earliest outstanding fill.
func TestLLCBankQueueingAndMSHR(t *testing.T) {
	llc := New(Config{
		Name: "L3", Bytes: 1 << 20, Ways: 16, Latency: 10,
		Banks: 2, BankBusy: 3, MSHRs: 2,
	}, &fixedLevel{latency: 50})
	// Three reads to bank 0 (even block addresses), all arriving at cycle 0.
	// m1: port at 0, MSHR 0, fill issues at 10  -> done 60
	// m2: port at 3 (queued 3), MSHR 1,
	//     fill issues at 13                     -> done 63
	// m3: port at 6 (queued 6), both MSHRs busy,
	//     waits for MSHR 0 to drain at 60,
	//     fill issues at 70                     -> done 120
	want := []uint64{60, 63, 120}
	for i, w := range want {
		addr := uint64(2 * i)
		if got := llc.Access(Request{BlockAddr: addr, Kind: Read}, 0); got != w {
			t.Errorf("miss %d: done at %d, want %d", i+1, got, w)
		}
	}
	m := metrics(llc.RegisterObs, "llc.")
	wantBank := map[string]uint64{
		"accesses": 3, "queue_cycles": 9, "busy_cycles": 9,
		"mshr_stalls": 1, "mshr_cycles": 54,
	}
	for field, want := range wantBank {
		if got := metric(t, m, "llc.b0."+field); got != want {
			t.Errorf("bank 0 %s = %d, want %d", field, got, want)
		}
		if got := metric(t, m, "llc.b1."+field); got != 0 {
			t.Errorf("bank 1 %s = %d for bank-0 addresses, want 0", field, got)
		}
	}
	// A hit pays only the bank port and the access latency.
	if got := llc.Access(Request{BlockAddr: 0, Kind: Read}, 200); got != 210 {
		t.Errorf("hit done at %d, want 210", got)
	}
}
