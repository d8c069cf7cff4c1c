package obs

import (
	"encoding/json"
	"sync"
	"testing"
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
