package serve

import (
	"fmt"
	"net/http"
	"runtime/debug"

	"tevot/internal/obs"
)

// Reusable HTTP building blocks. The prediction server below and the
// distributed-sweep coordinator (internal/dist) share the same hardening
// story — panic isolation, bounded admission, structured JSON errors —
// so the pieces live here as plain exported middleware instead of being
// welded into Server.

// Recover converts a handler-goroutine panic into a 500 plus a log line
// and an optional callback (metrics) instead of a dead connection:
// net/http would recover the panic anyway, but only after killing the
// connection, and without a record of it in the serving metrics.
func Recover(component string, onPanic func(), next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				if onPanic != nil {
					onPanic()
				}
				obs.Logger(component).Error("handler panic recovered",
					"path", r.URL.Path, "panic", fmt.Sprint(p), "stack", string(debug.Stack()))
				// Best effort: if the handler already wrote headers this
				// write is a no-op on the status line.
				WriteError(w, http.StatusInternalServerError, "internal_panic", "internal error")
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// Limit caps concurrent in-flight requests at n; excess requests are
// shed immediately with 429 + Retry-After rather than queued. This is
// the same no-unbounded-buffering admission stance as the prediction
// server's worker queue, for handlers that do their work inline (the
// coordinator's lease bookkeeping) instead of through a worker pool.
func Limit(n int, onShed func(), next http.Handler) http.Handler {
	if n <= 0 {
		return next
	}
	sem := make(chan struct{}, n)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case sem <- struct{}{}:
			defer func() { <-sem }()
			next.ServeHTTP(w, r)
		default:
			if onShed != nil {
				onShed()
			}
			w.Header().Set("Retry-After", "1")
			WriteError(w, http.StatusTooManyRequests, "overloaded",
				fmt.Sprintf("%d requests already in flight; retry with backoff", n))
		}
	})
}
