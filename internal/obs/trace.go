package obs

// Sampled, bounded event trace. The lifecycle hooks feed transitions into a
// fixed-capacity ring buffer; with sampling set to 1-in-N only every Nth
// transition is recorded, and once the ring wraps the oldest records are
// overwritten — the trace is a bounded tail, never an unbounded log. Dump
// re-encodes the retained events with internal/trace's binary writer, so
// the same tooling that reads instruction traces reads lifecycle traces.
//
// A nil *Trace is a valid disabled sink: Record on nil returns immediately,
// which is the default-off configuration the zero-alloc witness runs with.

import (
	"io"

	"repro/internal/trace"
)

// Re-exported lifecycle record kinds (defined by the trace format).
const (
	KindPrefIssue   = trace.KindPrefIssue
	KindPrefUse     = trace.KindPrefUse
	KindPrefLate    = trace.KindPrefLate
	KindPrefEvict   = trace.KindPrefEvict
	KindPrefPollute = trace.KindPrefPollute
)

// Trace is a sampled ring of lifecycle events. Construct with NewTrace.
type Trace struct {
	buf   []trace.Event //bfetch:noreset fixed ring storage, cleared via n/w
	every uint64        //bfetch:noreset sampling configuration
	seen  uint64        // transitions offered, before sampling
	kept  uint64        // transitions recorded (≤ seen)
	w     int           // next write slot
	n     int           // live records (≤ cap(buf))
}

// NewTrace returns a trace retaining at most capacity sampled events,
// recording one of every sampleEvery transitions (1 records everything;
// 0 is treated as 1). Capacity must be positive.
func NewTrace(capacity int, sampleEvery uint64) *Trace {
	if capacity <= 0 {
		capacity = 1
	}
	if sampleEvery == 0 {
		sampleEvery = 1
	}
	return &Trace{buf: make([]trace.Event, capacity), every: sampleEvery}
}

// Record offers one lifecycle transition to the sampler.
//
//bfetch:hotpath
func (t *Trace) Record(k trace.Kind, pc, blockAddr, cycle uint64) {
	if t == nil {
		return
	}
	t.seen++
	if t.every > 1 && t.seen%t.every != 0 {
		return
	}
	t.kept++
	t.buf[t.w] = trace.Event{Kind: k, PC: pc, Addr: blockAddr, Cycle: cycle}
	t.w++
	if t.w == len(t.buf) {
		t.w = 0
	}
	if t.n < len(t.buf) {
		t.n++
	}
}

// Seen returns the number of transitions offered; Kept the number sampled
// in; Len the number currently retained (Kept clamped to capacity).
func (t *Trace) Seen() uint64 { return t.seen }
func (t *Trace) Kept() uint64 { return t.kept }
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// Reset discards retained events and zeroes the sample counters; capacity
// and sampling rate are configuration and survive.
func (t *Trace) Reset() {
	t.seen, t.kept = 0, 0
	t.w, t.n = 0, 0
}

// Events appends the retained records, oldest first, and returns dst.
func (t *Trace) Events(dst []trace.Event) []trace.Event {
	if t == nil || t.n == 0 {
		return dst
	}
	start := t.w - t.n
	if start < 0 {
		start += len(t.buf)
	}
	for i := 0; i < t.n; i++ {
		dst = append(dst, t.buf[(start+i)%len(t.buf)])
	}
	return dst
}

// Dump writes the retained records, oldest first, as a binary trace stream.
func (t *Trace) Dump(w io.Writer) error {
	tw, err := trace.NewWriter(w)
	if err != nil {
		return err
	}
	for _, e := range t.Events(nil) {
		if err := tw.Write(e); err != nil {
			return err
		}
	}
	return tw.Flush()
}
