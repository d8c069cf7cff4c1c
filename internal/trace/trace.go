// Package trace records and reads execution traces: the committed
// instruction stream with memory effective addresses and branch outcomes.
// Traces let workload authors inspect what a kernel actually does; the only
// users are cmd/bfetch-asm's -trace (record a program's trace) and -dump
// (print one).
//
// The format is a little-endian binary stream with a small header followed
// by one variable-length record per event; see the encoding constants
// below. It round-trips exactly and is versioned.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
)

// Magic and version identify the stream format.
const (
	Magic   = 0x42465443 // "BFTC"
	Version = 1
)

// Kind classifies one trace event.
type Kind uint8

const (
	KindLoad Kind = iota + 1
	KindStore
	KindBranch // conditional branch
	KindJump   // unconditional control (direct or indirect)
)

// Event is one committed instruction worth tracing. Non-memory, non-control
// instructions are not recorded (they carry no information the consumers
// use); PC gaps are implicit in the records.
type Event struct {
	Kind  Kind
	PC    uint64
	Addr  uint64 // loads/stores: effective address
	Taken bool   // branches: outcome
}

// Writer encodes events to an underlying stream.
type Writer struct {
	w     *bufio.Writer
	count uint64
	err   error
}

// NewWriter writes a header and returns a Writer.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], Magic)
	binary.LittleEndian.PutUint32(hdr[4:], Version)
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// Write appends one event.
func (t *Writer) Write(e Event) error {
	if t.err != nil {
		return t.err
	}
	var buf [1 + binary.MaxVarintLen64*2]byte
	flags := byte(e.Kind) << 1
	if e.Taken {
		flags |= 1
	}
	buf[0] = flags
	n := 1 + binary.PutUvarint(buf[1:], e.PC)
	if e.Kind == KindLoad || e.Kind == KindStore {
		n += binary.PutUvarint(buf[n:], e.Addr)
	}
	if _, err := t.w.Write(buf[:n]); err != nil {
		t.err = err
		return err
	}
	t.count++
	return nil
}

// Count returns the number of events written.
func (t *Writer) Count() uint64 { return t.count }

// Flush drains buffered output.
func (t *Writer) Flush() error {
	if t.err != nil {
		return t.err
	}
	return t.w.Flush()
}

// Reader decodes a trace stream.
type Reader struct {
	r *bufio.Reader
}

// NewReader validates the header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: short header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != Magic {
		return nil, errors.New("trace: bad magic")
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != Version {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	return &Reader{r: br}, nil
}

// Read returns the next event, or io.EOF at the end of the stream. A stream
// that ends inside a record is io.ErrUnexpectedEOF, never a clean end.
func (t *Reader) Read() (Event, error) {
	flags, err := t.r.ReadByte()
	if err != nil {
		return Event{}, err // io.EOF on a record boundary is the clean end
	}
	e := Event{Kind: Kind(flags >> 1), Taken: flags&1 != 0}
	if e.Kind < KindLoad || e.Kind > KindJump {
		return Event{}, fmt.Errorf("trace: invalid record kind %d", e.Kind)
	}
	field := func(v *uint64) {
		if err == nil {
			*v, err = binary.ReadUvarint(t.r)
		}
	}
	field(&e.PC)
	if e.Kind == KindLoad || e.Kind == KindStore {
		field(&e.Addr)
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return Event{}, fmt.Errorf("trace: truncated record: %w", err)
	}
	return e, nil
}

// ReadAll decodes the remaining events.
func (t *Reader) ReadAll() ([]Event, error) {
	var out []Event
	for {
		e, err := t.Read()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
}

// Record functionally executes up to maxInsts instructions of a program and
// writes its trace. It returns the number of instructions executed.
func Record(w io.Writer, prog *isa.Program, image *mem.Memory, maxInsts uint64) (uint64, error) {
	tw, err := NewWriter(w)
	if err != nil {
		return 0, err
	}
	cpu := emu.New(prog, image)
	cpu.OnRetire = func(r emu.Retire) {
		switch {
		case r.Inst.IsLoad():
			tw.Write(Event{Kind: KindLoad, PC: r.PC, Addr: r.EA})
		case r.Inst.IsStore():
			tw.Write(Event{Kind: KindStore, PC: r.PC, Addr: r.EA})
		case r.Inst.IsCondBranch():
			tw.Write(Event{Kind: KindBranch, PC: r.PC, Taken: r.Taken})
		case r.Inst.IsControl():
			tw.Write(Event{Kind: KindJump, PC: r.PC, Taken: true})
		}
	}
	n, err := cpu.Run(maxInsts)
	if err != nil {
		return n, err
	}
	return n, tw.Flush()
}
