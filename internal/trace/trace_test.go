package trace

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/mem"
)

func TestRoundTrip(t *testing.T) {
	events := []Event{
		{Kind: KindLoad, PC: 0x1000, Addr: 0xDEADBEE8},
		{Kind: KindStore, PC: 0x1004, Addr: 0x10},
		{Kind: KindBranch, PC: 0x1008, Taken: true},
		{Kind: KindBranch, PC: 0x100C, Taken: false},
		{Kind: KindJump, PC: 0x1010, Taken: true},
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != uint64(len(events)) {
		t.Errorf("count = %d", w.Count())
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Errorf("event %d = %+v, want %+v", i, got[i], events[i])
		}
	}
}

func TestBadHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Error("short header accepted")
	}
	bad := make([]byte, 8) // zero magic
	if _, err := NewReader(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(Event{Kind: KindLoad, PC: 0xFFFFFFFF, Addr: 0xFFFFFFFF})
	w.Flush()
	full := buf.Bytes()
	r, err := NewReader(bytes.NewReader(full[:len(full)-2]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err == nil || errors.Is(err, io.EOF) {
		t.Errorf("truncated record: err = %v", err)
	}
}

// TestInvalidKind feeds records whose kind is outside KindLoad..KindJump:
// kind 0, the kinds 5–9 just past KindJump, and the largest kind the flags
// byte can hold.
func TestInvalidKind(t *testing.T) {
	header := encode(t, nil)
	for _, k := range []byte{0, 5, 6, 7, 8, 9, 127} {
		// Three one-byte varints: more fields than any record has, so the
		// record is never cut short and only its kind can make it invalid.
		stream := append(append([]byte{}, header...), k<<1, 0x10, 0x20, 0x30)
		_, err := decode(stream)
		if err == nil || !strings.Contains(err.Error(), "invalid record kind") {
			t.Errorf("kind %d: err = %v, want an invalid record kind", k, err)
		}
	}
}

func TestRecordProgram(t *testing.T) {
	prog := isa.MustAssemble(`
		movi r16, 0x4000
		movi r10, 3
	loop:
		ld   r1, 0(r16)
		st   r1, 8(r16)
		addi r16, r16, 64
		addi r10, r10, -1
		bnez r10, loop
		halt
	`)
	var buf bytes.Buffer
	n, err := Record(&buf, prog, mem.New(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("nothing executed")
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	events, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// 3 iterations × (load + store + branch) = 9 events.
	var loads, stores, branches int
	for _, e := range events {
		switch e.Kind {
		case KindLoad:
			loads++
		case KindStore:
			stores++
		case KindBranch:
			branches++
		}
	}
	if loads != 3 || stores != 3 || branches != 3 {
		t.Errorf("events = %d loads / %d stores / %d branches", loads, stores, branches)
	}
	// Addresses advance by 64.
	if events[0].Addr != 0x4000 || events[3].Addr != 0x4040 {
		t.Errorf("load addresses: %+v %+v", events[0], events[3])
	}
	// Final branch is not taken.
	last := events[len(events)-1]
	if last.Kind != KindBranch || last.Taken {
		t.Errorf("last event = %+v", last)
	}
}

// Property: arbitrary event sequences round-trip exactly.
func TestQuickRoundTrip(t *testing.T) {
	f := func(raw []struct {
		K     uint8
		PC, A uint64
		T     bool
	}) bool {
		events := make([]Event, len(raw))
		for i, r := range raw {
			events[i] = Event{
				Kind:  Kind(r.K%4) + KindLoad,
				PC:    r.PC,
				Taken: r.T,
			}
			if events[i].Kind == KindLoad || events[i].Kind == KindStore {
				events[i].Addr = r.A
			}
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		for _, e := range events {
			if err := w.Write(e); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		got, err := r.ReadAll()
		if err != nil || len(got) != len(events) {
			return false
		}
		for i := range events {
			if got[i] != events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// encode writes events as a complete stream.
func encode(t testing.TB, events []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decode reads a whole stream.
func decode(data []byte) ([]Event, error) {
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return r.ReadAll()
}

// TestTruncatedAfterFlags cuts a stream right after the second record's
// flags byte. The record has started, so the stream is truncated, not
// complete after one event.
func TestTruncatedAfterFlags(t *testing.T) {
	first := Event{Kind: KindLoad, PC: 0x1000, Addr: 0x40}
	full := encode(t, []Event{first, {Kind: KindLoad, PC: 0x1004, Addr: 0x80}})
	cut := len(encode(t, []Event{first})) + 1
	got, err := decode(full[:cut])
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if len(got) != 1 || got[0] != first {
		t.Errorf("events before the cut = %+v, want [%+v]", got, first)
	}
}

// FuzzTraceReader feeds arbitrary bytes to the reader: they decode to
// events or an error, never a panic. When they decode cleanly, every cut
// of their canonical re-encoding decodes as complete exactly when it ends
// on a record boundary, and then to the events before the cut.
func FuzzTraceReader(f *testing.F) {
	prog := isa.MustAssemble(`
		movi r16, 0x4000
		movi r10, 3
	loop:
		ld   r1, 0(r16)
		st   r1, 8(r16)
		addi r16, r16, 64
		addi r10, r10, -1
		bnez r10, loop
		halt
	`)
	var buf bytes.Buffer
	if _, err := Record(&buf, prog, mem.New(), 100); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// A complete record of an invalid kind (7).
	f.Add(append(encode(f, nil), 7<<1, 0x10, 0x20, 0x30))
	f.Add(buf.Bytes()[:buf.Len()-1])
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := decode(data)
		if err != nil || len(events) > 256 {
			return
		}
		stream := encode(t, events)
		boundary := map[int]int{len(stream): len(events)}
		for i := range events {
			boundary[len(encode(t, events[:i]))] = i
		}
		for cut := 8; cut <= len(stream); cut++ {
			got, err := decode(stream[:cut])
			n, onBoundary := boundary[cut]
			switch {
			case onBoundary && err != nil:
				t.Fatalf("cut at record boundary %d: %v", cut, err)
			case !onBoundary && err == nil:
				t.Fatalf("cut at %d, inside a record, decoded as complete: %+v", cut, got)
			case onBoundary && len(got) != n:
				t.Fatalf("cut at %d: %d events, want %d", cut, len(got), n)
			}
			for i := range got {
				if got[i] != events[i] {
					t.Fatalf("cut at %d: event %d = %+v, want %+v", cut, i, got[i], events[i])
				}
			}
		}
	})
}
