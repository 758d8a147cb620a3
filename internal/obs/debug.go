package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// DebugServer exposes a registry snapshot, Prometheus metrics and pprof
// over HTTP for live inspection of long runs.
type DebugServer struct {
	srv *http.Server
	mux *http.ServeMux
	lis net.Listener
}

// StartDebug listens on addr (e.g. "localhost:6060") and serves:
//
//	/debug/obs     — JSON registry snapshot (expvar-style)
//	/metrics       — the registry in Prometheus text exposition format
//	/debug/pprof/  — the standard runtime profiles
//
// The server runs on its own mux so importing this package never pollutes
// http.DefaultServeMux. Requests are served until Close; further surfaces
// (the monitor's /debug/live and /debug/health, the session span ring's
// /debug/timeline) attach via Handle.
func StartDebug(addr string, reg *Registry) (*DebugServer, error) {
	if reg == nil {
		return nil, fmt.Errorf("obs: nil registry")
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/obs", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(reg.Snapshot()) //nolint:errcheck // best-effort debug output
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, reg.Snapshot()) //nolint:errcheck // best-effort debug output
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	d := &DebugServer{srv: srv, mux: mux, lis: lis}
	go srv.Serve(lis) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return d, nil
}

// Handle registers an additional handler on the server's mux, so layers
// above obs (the run monitor) can add read surfaces without owning the
// server. ServeMux registration is safe while serving; registering the
// same pattern twice panics, as with any mux.
func (d *DebugServer) Handle(pattern string, h http.Handler) {
	d.mux.Handle(pattern, h)
}

// Addr returns the bound address, useful when addr requested port 0.
func (d *DebugServer) Addr() string { return d.lis.Addr().String() }

// Close stops the server.
func (d *DebugServer) Close() error { return d.srv.Close() }
