package obs

import (
	"bufio"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"
)

// TestStreamHubFanout checks the hub's core semantics: every subscriber sees
// every published line, lines are newline-terminated NDJSON, and cancel is
// idempotent and closes the channel.
func TestStreamHubFanout(t *testing.T) {
	h := NewStreamHub()
	a, cancelA := h.Subscribe()
	b, cancelB := h.Subscribe()
	if n := h.Subscribers(); n != 2 {
		t.Fatalf("Subscribers() = %d, want 2", n)
	}

	h.Publish(Status{Schema: SchemaStatus, JobsDone: 1, JobsTotal: 2})
	h.Publish(RunReport{Schema: SchemaRun, Engine: "bfetch", Cycles: 100, Insts: 50})

	for name, ch := range map[string]<-chan []byte{"a": a, "b": b} {
		for i, wantSchema := range []string{SchemaStatus, SchemaRun} {
			line := <-ch
			if line[len(line)-1] != '\n' {
				t.Errorf("%s line %d not newline-terminated", name, i)
			}
			var doc struct {
				Schema string `json:"schema"`
			}
			if err := json.Unmarshal(line, &doc); err != nil {
				t.Fatalf("%s line %d: %v", name, i, err)
			}
			if doc.Schema != wantSchema {
				t.Errorf("%s line %d schema %q, want %q", name, i, doc.Schema, wantSchema)
			}
		}
	}

	cancelA()
	cancelA() // idempotent
	if _, ok := <-a; ok {
		t.Error("cancelled subscriber's channel not closed")
	}
	if n := h.Subscribers(); n != 1 {
		t.Errorf("Subscribers() after cancel = %d, want 1", n)
	}
	h.Publish(Status{Schema: SchemaStatus, JobsDone: 2, JobsTotal: 2})
	if line := <-b; line == nil {
		t.Error("surviving subscriber missed a publish after peer cancelled")
	}
	cancelB()
	// Publishing with no subscribers, and on a nil hub, must be no-ops.
	h.Publish(RunReport{Schema: SchemaRun})
	var nilHub *StreamHub
	nilHub.Publish(RunReport{Schema: SchemaRun})
}

// TestStreamHubSlowClient checks the non-blocking drop policy: a subscriber
// that never reads absorbs streamBuffer events, then overflow is counted as
// dropped and Publish still returns — a stalled client cannot wedge a batch.
func TestStreamHubSlowClient(t *testing.T) {
	h := NewStreamHub()
	_, cancel := h.Subscribe()
	defer cancel()
	for i := 0; i < streamBuffer+5; i++ {
		h.Publish(Status{Schema: SchemaStatus, JobsDone: uint64(i)})
	}
	if got := h.Dropped(); got != 5 {
		t.Errorf("Dropped() = %d, want 5", got)
	}
}

// TestStreamHubConcurrent races publishers against subscribe/cancel churn;
// run under -race this pins the locking discipline (in particular that
// Publish's send cannot race Subscribe's close).
func TestStreamHubConcurrent(t *testing.T) {
	h := NewStreamHub()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					h.Publish(Status{Schema: SchemaStatus, JobsDone: uint64(i)})
				}
			}
		}()
	}
	var sg sync.WaitGroup
	for s := 0; s < 4; s++ {
		sg.Add(1)
		go func() {
			defer sg.Done()
			for i := 0; i < 50; i++ {
				ch, cancel := h.Subscribe()
				<-ch // publishers run until stop: a receive always arrives
				cancel()
				for range ch { // drain to closed: cancel-vs-publish ordering
				}
			}
		}()
	}
	sg.Wait()
	close(stop)
	wg.Wait()
	if n := h.Subscribers(); n != 0 {
		t.Errorf("Subscribers() after churn = %d, want 0", n)
	}
}

// TestServeStream exercises the /obs/stream endpoint end to end: a client
// connects, the hub registers it, published events arrive as parseable
// NDJSON lines that pass ValidateReport, and disconnecting unregisters the
// subscriber.
func TestServeStream(t *testing.T) {
	hub := NewStreamHub()
	srv, err := Serve("127.0.0.1:0", func() Status { return Status{Schema: SchemaStatus} }, nil, hub)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/obs/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /obs/stream: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type %q, want application/x-ndjson", ct)
	}

	// The handler subscribes asynchronously; wait for registration before
	// publishing so the event cannot be lost to the race.
	deadline := time.Now().Add(5 * time.Second)
	for hub.Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stream client never registered with the hub")
		}
		time.Sleep(time.Millisecond)
	}

	hub.Publish(Status{Schema: SchemaStatus, JobsDone: 3, JobsTotal: 4})

	line, err := bufio.NewReader(resp.Body).ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	if schema, err := ValidateReport(line); err != nil || schema != SchemaStatus {
		t.Fatalf("stream line %q: schema %q, %v", line, schema, err)
	}
	var s Status
	if err := json.Unmarshal(line, &s); err != nil {
		t.Fatal(err)
	}
	if s.JobsDone != 3 || s.JobsTotal != 4 {
		t.Errorf("stream status %+v, want the published 3/4", s)
	}

	resp.Body.Close()
	deadline = time.Now().Add(5 * time.Second)
	for hub.Subscribers() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("disconnected client never unregistered from the hub")
		}
		// Nudge the handler's select loop: a publish to a closed connection
		// surfaces the write error / context cancellation.
		hub.Publish(Status{Schema: SchemaStatus})
		time.Sleep(time.Millisecond)
	}
}
