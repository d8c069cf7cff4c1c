package obs

// Live run introspection. Serve starts a debug HTTP endpoint on its own
// mux (nothing leaks onto http.DefaultServeMux):
//
//	/obs         current Status (schema bfetch-obs-status/v1)
//	/obs/runs    completed runs so far (schema bfetch-obs/v1)
//	/obs/stream  live NDJSON stream of run reports and status documents
//	/debug/vars  expvar (the Go runtime vars; Status is served at /obs)
//	/debug/pprof net/http/pprof profiles
//
// The endpoint is read-only and intended for localhost debugging of long
// experiment batches; it is off unless a CLI passes -http.

import (
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
)

// Server is a running introspection endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts the endpoint on addr (e.g. "127.0.0.1:0"; an empty port
// picks one — read it back with Addr). status supplies the live Status;
// runs supplies the completed-run reports and may be nil; hub, when
// non-nil, is served as a live NDJSON stream at /obs/stream (each client
// gets its own subscription; see StreamHub for the slow-client policy).
func Serve(addr string, status func() Status, runs func() RunsFile, hub *StreamHub) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}

	statusJSON := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(status())
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/obs", statusJSON)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		statusJSON(w, r)
	})
	if runs != nil {
		mux.HandleFunc("/obs/runs", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(runs())
		})
	}
	if hub != nil {
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
	}
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s := &Server{ln: ln, srv: &http.Server{Handler: mux}}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the endpoint down.
func (s *Server) Close() error { return s.srv.Close() }
