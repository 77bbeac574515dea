package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"tevot/internal/cells"
	"tevot/internal/obs"
)

// Handler returns the full route set wrapped in the panic-recovery
// middleware:
//
//	GET  /                  route index
//	GET  /healthz           liveness (200 while the process runs)
//	GET  /readyz            readiness (503 once draining)
//	GET  /metrics           Prometheus exposition (format 0.0.4)
//	POST /v1/predict        batched delay/error prediction (default unit)
//	POST /v1/predict/{fu}   same, routed to one functional unit's shard
//	POST /admin/reload      validated model hot-reload (optionally per FU)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			WriteError(w, http.StatusNotFound, "not_found", "unknown route")
			return
		}
		fmt.Fprintf(w, "tevot-serve\n\nGET  /healthz\nGET  /readyz\nGET  /metrics\nPOST /v1/predict\nPOST /v1/predict/{fu}\nPOST /admin/reload\n\nunits: %v\n", s.FUs())
	})
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/v1/predict", func(w http.ResponseWriter, r *http.Request) {
		s.handlePredict(s.units[0], w, r)
	})
	mux.HandleFunc("/v1/predict/{fu}", func(w http.ResponseWriter, r *http.Request) {
		fu := r.PathValue("fu")
		u, ok := s.unitFor(fu)
		if !ok {
			// Counted in the aggregate only: no unit owns this request,
			// so no per-FU identity includes it.
			mRequests.Inc()
			mBad.Inc()
			mUnknownFU.Inc()
			WriteError(w, http.StatusNotFound, "unknown_fu",
				fmt.Sprintf("no model serves %q; units: %v", fu, s.FUs()))
			return
		}
		s.handlePredict(u, w, r)
	})
	mux.HandleFunc("/admin/reload", s.handleReload)
	mux.Handle("/metrics", obs.PromHandler(nil))
	// Panic isolation via the shared middleware (middleware.go); the
	// coalescer admission for /v1/predict stays inside handlePredict
	// because shedding happens after validation there. Traced sits
	// inside Recover so a panicking traced request still ends cleanly,
	// and roots a trace per request (the serving SLO exemplar source).
	return Recover("serve", mPanics.Inc, Traced("serve", false, mux))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	units := make(map[string]int64, len(s.units))
	for _, u := range s.units {
		units[u.fu] = u.state.Load().generation
	}
	st := s.units[0].state.Load()
	WriteJSON(w, http.StatusOK, map[string]any{
		"status":           "ready",
		"fu":               st.model.FU.String(),
		"model_generation": st.generation,
		"units":            units,
	})
}

// shed answers 429 with a Retry-After derived from the unit's last
// measured flush duration: enough whole seconds for the present backlog
// to clear at one batch per flush (see retryAfterSecs).
func (s *Server) shed(u *unit, w http.ResponseWriter, code, msg string) {
	u.met.shed.Inc()
	mShed.Inc()
	secs := retryAfterSecs(time.Duration(u.lastFlush.Load()), int64(len(u.queue)), s.cfg.BatchSize)
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	WriteError(w, http.StatusTooManyRequests, code, msg)
}

// handlePredict is the serving hot path: validate, admit into the
// unit's queue, wait for the flush under the request deadline.
// Every exit increments exactly one outcome counter in the unit's set
// AND the aggregate set (see the accounting identity in metrics.go).
func (s *Server) handlePredict(u *unit, w http.ResponseWriter, r *http.Request) {
	u.met.requests.Inc()
	mRequests.Inc()
	start := time.Now()
	defer func() { hRequestSec.Observe(time.Since(start).Seconds()) }()

	if r.Method != http.MethodPost {
		u.met.bad.Inc()
		mBad.Inc()
		w.Header().Set("Allow", http.MethodPost)
		WriteError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST")
		return
	}
	if s.draining.Load() {
		// The listener is closing, but a request already in flight on a
		// kept-alive connection can still land here; shed it.
		s.shed(u, w, "draining", "server is draining")
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	req, err := readPredict(r.Body)
	if err != nil {
		u.met.bad.Inc()
		mBad.Inc()
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			WriteError(w, http.StatusRequestEntityTooLarge, "body_too_large",
				fmt.Sprintf("body exceeds the %d-byte cap", tooBig.Limit))
			return
		}
		WriteError(w, http.StatusBadRequest, "malformed_json", err.Error())
		return
	}
	if err := req.validate(s.cfg.MaxPairs, s.cfg.MaxClocks); err != nil {
		u.met.bad.Inc()
		mBad.Inc()
		WriteError(w, http.StatusBadRequest, "invalid_request", err.Error())
		return
	}

	// Admission: the queue either takes the item now or the request
	// is shed now. Nothing ever waits for queue space — that wait is
	// exactly the unbounded buffering this server refuses to do.
	it := s.itemPool.Get().(*batchItem)
	it.ctx = ctx
	it.corner = cells.Corner{V: req.Voltage, T: req.Temperature}
	it.pairs = req.Pairs
	it.rows = len(req.Pairs) - 1
	if !u.admit(it) {
		s.recycle(it)
		s.shed(u, w, "overloaded",
			fmt.Sprintf("admission queue full (%d deep); retry with backoff", s.cfg.QueueDepth))
		return
	}

	select {
	case <-it.done:
		err := it.err
		switch {
		case err == nil:
			u.met.served.Inc()
			mServed.Inc()
			WriteJSON(w, http.StatusOK, buildResponse(u.fu, it, req.Clocks))
		case errors.Is(err, errDraining):
			s.shed(u, w, "draining", "server is draining")
		case errors.Is(err, context.DeadlineExceeded):
			u.met.timeouts.Inc()
			mTimeouts.Inc()
			WriteError(w, http.StatusServiceUnavailable, "deadline_exceeded",
				fmt.Sprintf("request exceeded the %v server-side deadline", s.cfg.RequestTimeout))
		case errors.Is(err, context.Canceled):
			// The flush swept the item after the client went away.
			u.met.canceled.Inc()
			mCanceled.Inc()
			WriteError(w, http.StatusServiceUnavailable, "client_gone", "request cancelled")
		default:
			u.met.internal.Inc()
			mInternal.Inc()
			obs.Logger("serve").Error("prediction failed", "fu", u.fu, "err", err)
			WriteError(w, http.StatusInternalServerError, "prediction_failed", "internal error")
		}
		s.recycle(it)
	case <-ctx.Done():
		// The handler stops waiting; the item is abandoned to the
		// coalescer (its buffered done signal lands in the void, and it
		// is never recycled, so the flusher's writes stay safe).
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			u.met.timeouts.Inc()
			mTimeouts.Inc()
			WriteError(w, http.StatusServiceUnavailable, "deadline_exceeded",
				fmt.Sprintf("request exceeded the %v server-side deadline", s.cfg.RequestTimeout))
			return
		}
		// Client went away; the status is written into the void but the
		// outcome must still be accounted.
		u.met.canceled.Inc()
		mCanceled.Inc()
		WriteError(w, http.StatusServiceUnavailable, "client_gone", "request cancelled")
	}
}

// recycle returns an item the handler still owns (admitted and
// completed, or never admitted) to the pool. Abandoned items — the
// request context won the select — must NOT come here: the flusher may
// still write into them.
func (s *Server) recycle(it *batchItem) {
	it.ctx = nil
	it.pairs = nil
	it.err = nil
	// Drain a straggler done signal (admit failed after a previous use
	// left none; defensive — the protocol never leaves one, but a
	// poisoned pool item would corrupt a later request).
	select {
	case <-it.done:
	default:
	}
	s.itemPool.Put(it)
}

// buildResponse assembles the response for a served item: predicted
// delays, per-clock verdicts (computed here, outside the shared flush),
// and the batch timing breakdown.
func buildResponse(fu string, it *batchItem, clocks []float64) *predictResponse {
	n := it.rows
	resp := &predictResponse{
		FU:              fu,
		ModelGeneration: it.gen,
		Delays:          it.delays[:n],
		Batch: &batchInfo{
			QueuedAt:    it.queuedAt,
			FlushedAt:   it.flushedAt,
			QueueUS:     it.flushedAt.Sub(it.queuedAt).Microseconds(),
			InferenceUS: it.inferUS,
			Items:       it.batchItems,
			Rows:        it.batchRows,
			Reason:      string(it.reason),
		},
	}
	for _, clk := range clocks {
		cr := clockResult{ClockPs: clk, Errors: make([]bool, n)}
		bad := 0
		for i, d := range resp.Delays {
			if d > clk {
				cr.Errors[i] = true
				bad++
			}
		}
		cr.TER = float64(bad) / float64(n)
		resp.Clocks = append(resp.Clocks, cr)
	}
	return resp
}
