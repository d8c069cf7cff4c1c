package cache

// Deterministic-contention tests for the scale-out shared-memory models.
// The banked LLC and the channeled DRAM promise two things: (1) requests to
// DIFFERENT banks/channels are fully independent — reordering them across
// one another changes no grant or latency — and (2) requests to the SAME
// bank/channel are served FCFS in arrival order, with occupancy (bank busy
// time, MSHRs, channel in-flight slots) applied exactly. The simulator
// pins arrival order by ticking cores in index order, each reaching the
// shared levels synchronously; these tests pin the models' side of the
// contract.

import (
	"testing"
)

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
// identical per-address completion times and per-channel counters.
func TestDRAMChannelPermutationInvariance(t *testing.T) {
	// Channel = block address & 3; addr and addr+8 share a channel.
	orders := map[string][]uint64{
		"channel-major": {0, 8, 1, 9, 2, 10, 3, 11},
		"round-robin":   {0, 1, 2, 3, 8, 9, 10, 11},
		"reversed":      {3, 11, 2, 10, 1, 9, 0, 8},
	}
	type outcome struct {
		done               map[uint64]uint64
		stats              [4]ChannelStats
		fills, stallCycles uint64
	}
	results := map[string]outcome{}
	for name, order := range orders {
		d := newChanneledDRAM(t, 4, 2)
		o := outcome{done: map[uint64]uint64{}}
		for _, addr := range order {
			o.done[addr] = d.Access(Request{BlockAddr: addr, Kind: Read}, 0)
		}
		for c := 0; c < 4; c++ {
			o.stats[c] = d.ChannelSnapshot(c)
		}
		o.fills, o.stallCycles = d.DemandFills, d.StallCycles
		results[name] = o
	}
	ref := results["channel-major"]
	for name, o := range results {
		for addr, done := range ref.done {
			if o.done[addr] != done {
				t.Errorf("%s: addr %d completes at %d, channel-major at %d", name, addr, o.done[addr], done)
			}
		}
		if o.stats != ref.stats {
			t.Errorf("%s: channel counters diverge: %+v vs %+v", name, o.stats, ref.stats)
		}
		if o.fills != ref.fills || o.stallCycles != ref.stallCycles {
			t.Errorf("%s: aggregate counters diverge: fills %d/%d, stalls %d/%d",
				name, o.fills, ref.fills, o.stallCycles, ref.stallCycles)
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
	cs := d.ChannelSnapshot(0)
	if cs.Transfers != 3 {
		t.Errorf("channel 0 carried %d transfers, want 3", cs.Transfers)
	}
	if d.ChannelSnapshot(1).Transfers != 0 {
		t.Errorf("channel 1 saw traffic for channel-0 addresses")
	}
	// Writebacks are posted: they claim the bus and a slot on their channel
	// (addr 1 -> the idle channel 1) but return at their issue cycle —
	// nothing waits on them.
	if got := d.Access(Request{BlockAddr: 1, Kind: Write}, 0); got != 0 {
		t.Errorf("posted writeback returned %d, want its issue cycle 0", got)
	}
}

// TestLLCBankPermutationInvariance runs the banked-LLC analogue over a
// channeled DRAM with one channel per bank (so bank independence holds end
// to end): two demand misses per bank, arriving at cycle 0 in different
// cross-bank interleavings, must produce identical per-address latencies and
// per-bank counters.
func TestLLCBankPermutationInvariance(t *testing.T) {
	// Bank = block address & 3 = channel; addr and addr+8 share a bank.
	orders := map[string][]uint64{
		"bank-major":  {0, 8, 1, 9, 2, 10, 3, 11},
		"round-robin": {0, 1, 2, 3, 8, 9, 10, 11},
		"reversed":    {3, 11, 2, 10, 1, 9, 0, 8},
	}
	type outcome struct {
		done  map[uint64]uint64
		banks [4]BankStats
		stats Stats
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
		for b := 0; b < 4; b++ {
			o.banks[b] = llc.BankSnapshot(b)
		}
		o.stats = llc.Stats
		results[name] = o
	}
	ref := results["bank-major"]
	for name, o := range results {
		for addr, done := range ref.done {
			if o.done[addr] != done {
				t.Errorf("%s: addr %d completes at %d, bank-major at %d", name, addr, o.done[addr], done)
			}
		}
		if o.banks != ref.banks {
			t.Errorf("%s: bank counters diverge: %+v vs %+v", name, o.banks, ref.banks)
		}
		if o.stats != ref.stats {
			t.Errorf("%s: cache stats diverge: %+v vs %+v", name, o.stats, ref.stats)
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
	b := llc.BankSnapshot(0)
	wantBank := BankStats{
		Accesses: 3, QueueCycles: 9, BusyCycles: 9,
		MSHRStalls: 1, MSHRCycles: 54,
	}
	if b != wantBank {
		t.Errorf("bank 0 counters: %+v, want %+v", b, wantBank)
	}
	if other := llc.BankSnapshot(1); other != (BankStats{}) {
		t.Errorf("bank 1 saw traffic for bank-0 addresses: %+v", other)
	}
	// A hit pays only the bank port and the access latency.
	if got := llc.Access(Request{BlockAddr: 0, Kind: Read}, 200); got != 210 {
		t.Errorf("hit done at %d, want 210", got)
	}
}
