package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/obs"
)

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestServeEndpoints pins the endpoint's routes: /obs serves the status
// record and /debug/pprof/ the profiles; every other path, including the
// retired /, /obs/runs and /debug/vars, answers 404.
func TestServeEndpoints(t *testing.T) {
	status := func() obs.Status {
		return obs.Status{Schema: obs.SchemaStatus, Experiment: "fig8", JobsDone: 3, JobsTotal: 8}
	}
	srv, err := serve("127.0.0.1:0", status, obs.NewStreamHub())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()
	base := "http://" + srv.addr()

	code, body := get(t, base+"/obs")
	if code != http.StatusOK {
		t.Fatalf("GET /obs: %d", code)
	}
	if schema, err := obs.ValidateReport(body); err != nil || schema != obs.SchemaStatus {
		t.Errorf("GET /obs: schema %q, err %v", schema, err)
	}
	if code, _ := get(t, base+"/debug/pprof/"); code != http.StatusOK {
		t.Errorf("GET /debug/pprof/: %d", code)
	}
	for _, path := range []string{"/", "/obs/runs", "/debug/vars", "/nonsense"} {
		if code, _ := get(t, base+path); code != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404", path, code)
		}
	}
}

// TestServeStream exercises the /obs/stream endpoint end to end: a client
// connects, the hub registers it, published events arrive as parseable
// NDJSON lines that pass ValidateReport, and disconnecting unregisters the
// subscriber.
func TestServeStream(t *testing.T) {
	hub := obs.NewStreamHub()
	srv, err := serve("127.0.0.1:0", func() obs.Status { return obs.Status{Schema: obs.SchemaStatus} }, hub)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()

	resp, err := http.Get("http://" + srv.addr() + "/obs/stream")
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

	hub.Publish(obs.Status{Schema: obs.SchemaStatus, JobsDone: 3, JobsTotal: 4})

	line, err := bufio.NewReader(resp.Body).ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	if schema, err := obs.ValidateReport(line); err != nil || schema != obs.SchemaStatus {
		t.Fatalf("stream line %q: schema %q, %v", line, schema, err)
	}
	var s obs.Status
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
		hub.Publish(obs.Status{Schema: obs.SchemaStatus})
		time.Sleep(time.Millisecond)
	}
}
