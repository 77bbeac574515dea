package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// DebugServer is the live window into a running CLI: Prometheus
// exposition, pprof, runtime vars, and a JSON progress view, served on
// the -debug-addr listener. It is read-only and intended for localhost
// / trusted-network use, exactly like net/http/pprof's default wiring.
//
// Routes:
//
//	/             — route index
//	/progress     — live progress JSON (runner counters + ETA)
//	/metrics      — Prometheus exposition format 0.0.4 (every registry
//	                metric, stage latencies included)
//	/debug/vars   — Go runtime vars (memstats, cmdline)
//	/debug/pprof  — CPU/heap/goroutine profiles for `go tool pprof`
type DebugServer struct {
	lis  net.Listener
	srv  *http.Server
	addr string
}

// ServeDebug starts the debug endpoint on addr (":0" picks a free
// port; the chosen address is DebugServer.Addr). progress supplies the
// /progress payload and may be nil, in which case /progress serves a
// placeholder status.
func ServeDebug(addr string, progress func() any) (*DebugServer, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug listener on %s: %w", addr, err)
	}
	if progress == nil {
		progress = func() any {
			return map[string]any{"status": "no-progress-source"}
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, "tevot debug endpoint\n\n/progress\n/metrics\n/debug/vars\n/debug/pprof/\n")
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, progress())
	})
	mux.Handle("/metrics", PromHandler(nil))
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ds := &DebugServer{
		lis:  lis,
		srv:  &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		addr: lis.Addr().String(),
	}
	go func() {
		// ErrServerClosed after Close is the expected shutdown path;
		// anything else is worth a log line but must not kill the sweep.
		if err := ds.srv.Serve(lis); err != nil && err != http.ErrServerClosed {
			Logger("obs").Error("debug server stopped", "addr", ds.addr, "err", err)
		}
	}()
	return ds, nil
}

// Addr is the address actually listening (resolves ":0").
func (ds *DebugServer) Addr() string { return ds.addr }

// Close stops the listener and server.
func (ds *DebugServer) Close() error {
	return ds.srv.Close()
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
