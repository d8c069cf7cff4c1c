package obs

// Live run streaming. A StreamHub fans NDJSON lines out to any number of
// concurrent subscribers; bfetch-bench's /obs/stream endpoint attaches one
// subscriber per connected client. The batch runner publishes the same two
// records it emits everywhere else: a RunReport per executed simulation and
// a Status per finished job, so every line carries a schema tag and passes
// ValidateReport. Publishing happens outside the
// simulation's per-cycle path, so the hot kernel stays allocation-free
// regardless of how many clients watch.
//
// Slow-client policy: each subscriber owns a bounded buffered channel, and
// Publish never blocks — an event that finds a subscriber's buffer full is
// dropped for that subscriber (and counted). A stalled curl therefore cannot
// back-pressure the experiment batch; clients needing a complete record read
// the -obsjson file, which is lossless.

import (
	"encoding/json"
	"sync"
)

// streamBuffer is each subscriber's channel depth. A job publishes at most
// two lines (its RunReport if it simulated, then a Status), so this holds
// 128 jobs' output — far more than a -j N pool finishes between two reads
// of a client that is keeping up.
const streamBuffer = 256

// StreamHub fans published events out to subscribers. The zero value is not
// usable; construct with NewStreamHub. Safe for concurrent use — producers
// publish from worker goroutines while HTTP handlers subscribe and cancel.
type StreamHub struct {
	mu      sync.Mutex
	subs    map[chan []byte]struct{}
	dropped uint64
}

// NewStreamHub returns an empty hub.
func NewStreamHub() *StreamHub {
	return &StreamHub{subs: make(map[chan []byte]struct{})}
}

// Subscribe registers a new subscriber and returns its event channel plus a
// cancel function. Each received value is one complete NDJSON line
// (newline-terminated). Cancel is idempotent and closes the channel after
// unregistering, so a draining reader terminates cleanly.
func (h *StreamHub) Subscribe() (<-chan []byte, func()) {
	ch := make(chan []byte, streamBuffer)
	h.mu.Lock()
	h.subs[ch] = struct{}{}
	h.mu.Unlock()
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			h.mu.Lock()
			delete(h.subs, ch)
			h.mu.Unlock()
			close(ch)
		})
	}
	return ch, cancel
}

// Subscribers reports the number of attached clients.
func (h *StreamHub) Subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// Dropped reports events discarded because a subscriber's buffer was full.
func (h *StreamHub) Dropped() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dropped
}

// Publish marshals v as one NDJSON line and offers it to every subscriber
// without blocking; subscribers whose buffers are full miss this event. A
// nil hub is a no-op, so producers need no guard. Marshal failures are
// silently dropped — the records are plain structs and cannot fail, and the
// streaming surface must never abort a batch.
func (h *StreamHub) Publish(v any) {
	if h == nil {
		return
	}
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	line := append(data, '\n')
	h.mu.Lock()
	for ch := range h.subs {
		select {
		case ch <- line: //bfetch:sync-ok select with default never blocks; sending under mu excludes Subscribe's close
		default:
			h.dropped++
		}
	}
	h.mu.Unlock()
}
