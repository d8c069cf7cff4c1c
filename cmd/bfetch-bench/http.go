package main

// Live run introspection. serve starts a debug HTTP endpoint on its own
// mux (nothing leaks onto http.DefaultServeMux), one route per record:
//
//	/obs          current Status (schema bfetch-obs-status/v1)
//	/obs/stream   live NDJSON stream of run reports and status documents
//	/debug/pprof/ net/http/pprof profiles
//
// The endpoint is read-only and intended for localhost debugging of long
// experiment batches; it is off unless -http is given. The complete run
// reports are the -obsjson file's.

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"

	"repro/internal/obs"
)

// server is a running introspection endpoint.
type server struct {
	ln  net.Listener
	srv *http.Server
}

// serve starts the endpoint on addr (e.g. "127.0.0.1:0"; an empty port
// picks one — read it back with addr). status supplies the live Status;
// hub is served as a live NDJSON stream at /obs/stream (each client gets
// its own subscription; see obs.StreamHub for the slow-client policy).
func serve(addr string, status func() obs.Status, hub *obs.StreamHub) (*server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/obs", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(status())
	})
	mux.HandleFunc("/obs/stream", func(w http.ResponseWriter, r *http.Request) {
		fl, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "streaming unsupported", http.StatusInternalServerError)
			return
		}
		ch, cancel := hub.Subscribe()
		defer cancel()
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("Cache-Control", "no-store")
		w.WriteHeader(http.StatusOK)
		fl.Flush()
		ctx := r.Context()
		for {
			select {
			case <-ctx.Done():
				return
			case line, ok := <-ch:
				if !ok {
					return
				}
				if _, err := w.Write(line); err != nil {
					return
				}
				fl.Flush()
			}
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s := &server{ln: ln, srv: &http.Server{Handler: mux}}
	go s.srv.Serve(ln)
	return s, nil
}

// addr returns the bound address (useful with port 0).
func (s *server) addr() string { return s.ln.Addr().String() }

// close shuts the endpoint down.
func (s *server) close() error { return s.srv.Close() }
