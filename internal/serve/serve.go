// Package serve is the online prediction service for trained TEVoT
// models: given {V, T, x[t], x[t-1]}, it predicts per-cycle dynamic
// delays and timing-error verdicts over HTTP — the serving role that
// runtime DVFS frameworks (FATE; Ajirlou & Partin-Vaisband, see
// PAPERS.md) assume when a timing-error model gates voltage/frequency
// decisions online. It is stdlib-only (net/http) and built around the
// failure modes a production predictor actually meets:
//
//   - request coalescing: individual /v1/predict calls queue per
//     functional unit, and the unit's workers pull from that queue
//     directly: the first request wakes an idle worker, which takes
//     whatever is queued behind it until the queue is empty (flush
//     reason idle) or BatchSize requests (size) or MaxBatchRows
//     predicted cycles (rows) are taken, so a request never waits
//     while a worker is free and riders accumulate only while every
//     worker is busy; one forest call amortizes over every rider, and
//     each response carries its batch's timing breakdown (queued_at,
//     flushed_at, inference_us, flush_reason);
//   - per-FU model sharding: each functional unit's model serves from
//     its own shard (queue + worker slice + hot-reload generation)
//     behind one mux: /v1/predict/{fu} routes by unit, /v1/predict
//     keeps the legacy single-model contract on the default unit;
//   - admission control: a bounded per-unit queue; when the unit is
//     full the request is shed immediately with 429 + a Retry-After
//     derived from the backlog and the unit's last measured flush
//     duration, instead of queueing unboundedly;
//   - per-request deadlines: the request context carries a server-side
//     timeout into the batch; a request that expires while queued is
//     answered 503 before the flush and removed from the batch;
//   - strict input hygiene: bodies are read whole under a MaxBytesReader
//     cap (413 past it) into a pooled buffer and decoded in one pass
//     when canonical, else by encoding/json with unknown fields refused
//     (serve.decode_fallback counts those), so every input gets exactly
//     the reference decoder's verdict; malformed, non-finite, or
//     wrong-size inputs get structured 4xx errors;
//   - panic isolation: recovery middleware (handler goroutines) and
//     worker-side recovery keep the process serving after a panic;
//   - graceful drain: readiness flips to draining, in-flight requests
//     complete under a drain deadline (no request ever waits while a
//     worker is idle, so none needs a drain flush), workers stop and
//     answer anything still queued 429 draining, and the process exits
//     through obs.Run so manifests and profiles survive;
//   - validated hot-reload: a new model gob is decoded into a side
//     buffer, validated (FU/dimension match, finite predictions on a
//     probe batch), then swapped atomically per unit; a flush loads the
//     unit's model state exactly once, so a reload racing a batch never
//     serves a torn model.
//
// The inference hot path reuses pooled items and each worker's batch
// struct and packed-row/delay buffers, so steady-state coalesced
// prediction does not touch the garbage collector (pinned at 0
// allocs/op by TestServeBatchHotPathAllocs).
package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tevot/internal/core"
	"tevot/internal/obs"
)

// ModelEntry is one functional unit's model in a multi-FU serving
// configuration: the trained model plus the gob path its hot-reloads
// re-read by default.
type ModelEntry struct {
	Model *core.Model
	Path  string
}

// Config sizes and parameterizes one prediction server. The zero value
// of every field has a production-sane default; Model (or Models) is
// the only required field.
type Config struct {
	// Addr is the listen address for ListenAndServe (":0" picks a port).
	Addr string
	// Model is the initial trained model for single-unit serving, with
	// no reload path (reloads must name one). Ignored when Models is set.
	Model *core.Model
	// Models serves several functional units from one process, each
	// behind /v1/predict/{fu} with its own queue, worker slice, and
	// reload generation. The first entry is the default unit answering
	// the legacy /v1/predict route. FUs must be distinct.
	Models []ModelEntry
	// Workers is the total inference worker count, spread across units
	// (default GOMAXPROCS, at least one per unit).
	Workers int
	// QueueDepth bounds each unit's admission queue (default 64): the
	// number of requests waiting for a worker. A full unit sheds with
	// 429.
	QueueDepth int
	// BatchSize caps the requests one worker takes into a batch
	// (default 32); the rest stay queued for the next worker. 1
	// disables coalescing: every request flushes alone.
	BatchSize int
	// MaxBatchRows caps the predicted cycles one batch holds (default
	// 8192), so a few huge requests cannot blow up the flush's working
	// set.
	MaxBatchRows int
	// RequestTimeout is the server-side per-request deadline applied to
	// /v1/predict (default 5s). Expiry answers 503.
	RequestTimeout time.Duration
	// DrainTimeout bounds graceful shutdown (default 15s): in-flight
	// requests get this long to finish before connections are closed.
	DrainTimeout time.Duration
	// MaxBodyBytes caps request bodies (default 8 MiB); larger bodies
	// answer 413.
	MaxBodyBytes int64
	// MaxPairs caps operand pairs per request (default 4097, i.e. 4096
	// predicted cycles); larger requests answer 400.
	MaxPairs int
	// MaxClocks caps clock periods per request (default 32).
	MaxClocks int

	// inferHook, when set (tests only), runs in the worker once per
	// live item before inference; its error fails the batch. It is how
	// the deadline and worker-panic failure modes are exercised without
	// slowing real inference.
	inferHook func(ctx context.Context) error
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.MaxBatchRows <= 0 {
		c.MaxBatchRows = 8192
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 15 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxPairs <= 0 {
		c.MaxPairs = 4097
	}
	if c.MaxClocks <= 0 {
		c.MaxClocks = 32
	}
	return c
}

// modelState is the atomically-swapped serving state of one unit: the
// model and its reload generation travel under one pointer, so a flush
// racing a hot-reload always observes a consistent (model, generation)
// pair — never a torn mix.
type modelState struct {
	model      *core.Model
	generation int64
	path       string
	loaded     time.Time
}

// Server is one prediction service instance: one unit per functional
// unit behind a shared mux and lifecycle.
type Server struct {
	cfg   Config
	units []*unit          // units[0] answers the legacy /v1/predict route
	byFU  map[string]*unit // /v1/predict/{fu} routing, keyed by FU name

	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	itemPool sync.Pool // *batchItem

	draining atomic.Bool
	addr     atomic.Pointer[string]
}

// errDraining fails residual queued items when the pool stops mid-drain.
var errDraining = fmt.Errorf("serve: draining")

// New validates cfg, installs the initial model(s), and starts a
// worker slice per functional unit. Pair with Close (or run the full
// lifecycle via ListenAndServe).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	models := cfg.Models
	if len(models) == 0 {
		if cfg.Model == nil {
			return nil, fmt.Errorf("serve: config needs a model")
		}
		models = []ModelEntry{{Model: cfg.Model}}
	}
	s := &Server{
		cfg:    cfg,
		byFU:   make(map[string]*unit, len(models)),
		stopCh: make(chan struct{}),
	}
	s.itemPool.New = func() any {
		return &batchItem{done: make(chan struct{}, 1)}
	}
	perUnit := cfg.Workers / len(models)
	if perUnit < 1 {
		perUnit = 1
	}
	for _, me := range models {
		if me.Model == nil {
			return nil, fmt.Errorf("serve: nil model in Models")
		}
		st := &modelState{model: me.Model, generation: 1, path: me.Path, loaded: time.Now()}
		u := newUnit(s, st, perUnit)
		if _, dup := s.byFU[u.fu]; dup {
			return nil, fmt.Errorf("serve: duplicate model for %s", u.fu)
		}
		s.byFU[u.fu] = u
		s.units = append(s.units, u)
	}
	gGeneration.Set(1)
	gDraining.Set(0)
	for _, u := range s.units {
		s.wg.Add(u.workers)
		for i := 0; i < u.workers; i++ {
			go u.worker()
		}
	}
	fus := make([]string, len(s.units))
	for i, u := range s.units {
		fus[i] = u.fu
	}
	obs.Logger("serve").Info("prediction server ready",
		"fus", fus, "units", len(s.units),
		"workers_per_unit", perUnit, "queue", cfg.QueueDepth,
		"batch_size", cfg.BatchSize, "max_batch_rows", cfg.MaxBatchRows,
		"request_timeout", cfg.RequestTimeout)
	return s, nil
}

// Addr reports the address ListenAndServe bound ("" before it runs).
func (s *Server) Addr() string {
	if p := s.addr.Load(); p != nil {
		return *p
	}
	return ""
}

// Close stops the worker pools immediately; requests still queued are
// answered 429 draining instead of being flushed. Idempotent.
// ListenAndServe calls it as part of draining; tests that drive Handler
// directly call it themselves.
func (s *Server) Close() {
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.wg.Wait()
}

// stopped reports whether Close has begun.
func (s *Server) stopped() bool {
	select {
	case <-s.stopCh:
		return true
	default:
		return false
	}
}

// queued reports the requests waiting in every unit's admission queue
// (serve.queue_depth).
func (s *Server) queued() int {
	n := 0
	for _, u := range s.units {
		n += len(u.queue)
	}
	return n
}

// ListenAndServe binds cfg.Addr and serves until ctx is cancelled
// (SIGINT/SIGTERM in the CLI), then drains gracefully: readiness flips
// to draining, the listener stops accepting, in-flight requests get
// DrainTimeout to finish, the worker pools stop, and the method returns
// — nil on a clean drain so the caller can exit 0 through obs.Run with
// the manifest intact.
func (s *Server) ListenAndServe(ctx context.Context) error {
	lis, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("serve: listen on %s: %w", s.cfg.Addr, err)
	}
	addr := lis.Addr().String()
	s.addr.Store(&addr)
	// This line is the smoke harness's (and the operator's) handle on
	// ":0" runs, exactly like the obs debug endpoint's.
	obs.Logger("serve").Info("prediction endpoint listening", "addr", "http://"+addr)

	srv := &http.Server{
		Handler: s.Handler(),
		// The read/write walls are deliberately wider than
		// RequestTimeout: the per-request deadline produces a clean 503,
		// these guard against stuck clients holding connections.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       s.cfg.RequestTimeout + 10*time.Second,
		WriteTimeout:      s.cfg.RequestTimeout + 10*time.Second,
		IdleTimeout:       60 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(lis) }()
	select {
	case err := <-errCh:
		s.Close()
		return fmt.Errorf("serve: listener failed: %w", err)
	case <-ctx.Done():
	}
	return s.drain(srv)
}

// drain is the graceful-shutdown sequence shared by ListenAndServe and
// the tests that drive it directly.
func (s *Server) drain(srv *http.Server) error {
	s.draining.Store(true)
	gDraining.Set(1)
	log := obs.Logger("serve")
	log.Info("draining", "deadline", s.cfg.DrainTimeout, "in_queue", s.queued())
	dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err := srv.Shutdown(dctx)
	// Workers stop only after Shutdown returns: on the clean path every
	// in-flight handler has finished by then, and on the deadline path
	// residual items are failed fast rather than left hanging.
	s.Close()
	if err != nil {
		srv.Close()
		log.Warn("drain deadline exceeded; connections closed", "err", err)
		return fmt.Errorf("serve: drain deadline exceeded: %w", err)
	}
	log.Info("drained cleanly")
	return nil
}

// Progress is the /progress payload source for the obs debug endpoint:
// a live snapshot of serving state across units.
func (s *Server) Progress() any {
	status := "serving"
	if s.draining.Load() {
		status = "draining"
	}
	units := make([]map[string]any, len(s.units))
	for i, u := range s.units {
		st := u.state.Load()
		units[i] = map[string]any{
			"fu":               u.fu,
			"model_generation": st.generation,
			"model_path":       st.path,
			"model_loaded":     st.loaded,
			"queue_depth":      len(u.queue),
			"workers":          u.workers,
		}
	}
	return map[string]any{
		"status":         status,
		"units":          units,
		"queue_depth":    s.queued(),
		"queue_capacity": s.cfg.QueueDepth,
		"batch_size":     s.cfg.BatchSize,
		"served":         mServed.Value(),
		"shed":           mShed.Value(),
		"timeouts":       mTimeouts.Value(),
	}
}

// Generation reports the default unit's model reload generation.
func (s *Server) Generation() int64 { return s.units[0].state.Load().generation }

// GenerationFU reports one unit's model reload generation (0 for an
// unknown FU).
func (s *Server) GenerationFU(fu string) int64 {
	u, ok := s.unitFor(fu)
	if !ok {
		return 0
	}
	return u.state.Load().generation
}

// unitFor resolves an FU name to its unit, accepting any casing: FU
// names are canonically uppercase (INT_ADD), but tevot-train saves
// model files lowercase (int_add.tevot), so lowercase URLs are a
// natural spelling.
func (s *Server) unitFor(fu string) (*unit, bool) {
	if u, ok := s.byFU[fu]; ok {
		return u, true
	}
	u, ok := s.byFU[strings.ToUpper(fu)]
	return u, ok
}

// FUs lists the served functional units, default unit first.
func (s *Server) FUs() []string {
	out := make([]string, len(s.units))
	for i, u := range s.units {
		out[i] = u.fu
	}
	return out
}
