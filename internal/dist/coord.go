package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"tevot/internal/obs"
	"tevot/internal/runner"
	"tevot/internal/serve"
)

// CoordConfig configures one coordinator run.
type CoordConfig struct {
	Spec Spec
	// Addr is the listen address for Serve ("127.0.0.1:0" default).
	Addr string
	// LeaseTTL is how long a granted lease lives without renewal.
	LeaseTTL time.Duration
	// ExpiryEvery is the expiry-sweep cadence (default LeaseTTL/4).
	ExpiryEvery time.Duration
	// StragglerFactor gates speculative re-issue: an in-flight cell is a
	// straggler once its elapsed time exceeds factor × the median
	// completed-cell time. <= 0 disables speculation.
	StragglerFactor float64
	// Journal is the checkpoint path ("" = no journal, in-memory only).
	// It uses internal/runner's checkpoint format, so a killed
	// coordinator resumes without re-running completed cells.
	Journal string
	// FS backs the journal file; nil means the real filesystem. Chaos
	// soaks inject torn writes, ENOSPC, and fsync lies here.
	FS runner.FS
	// Resume loads an existing journal instead of refusing to overwrite.
	Resume bool
	// Out, if set, receives the merged canonical JSONL on completion.
	Out string
	// Linger keeps the HTTP surface up after completion so workers
	// polling for leases hear "done" instead of a connection error.
	Linger time.Duration
}

func (c CoordConfig) withDefaults() CoordConfig {
	c.Spec = c.Spec.withDefaults()
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.ExpiryEvery <= 0 {
		c.ExpiryEvery = c.LeaseTTL / 4
	}
	if c.StragglerFactor == 0 {
		c.StragglerFactor = 3
	}
	if c.Linger <= 0 {
		c.Linger = 2 * time.Second
	}
	if c.FS == nil {
		c.FS = runner.OSFS
	}
	return c
}

// maxInflight caps the coordinator's concurrent HTTP requests
// (serve.Limit semantics).
const maxInflight = 64

// ErrJournalFailed marks a run aborted because the journal stopped
// persisting accepted results. Soaks and operators branch on it: the
// run's in-memory state was fine, but its resume guarantee was void.
var ErrJournalFailed = errors.New("dist: journal write failed")

// Coordinator owns the lease table and journal of one distributed
// sweep. All state is guarded by mu; the HTTP handlers are thin
// translations between the wire protocol and leaseTable calls.
type Coordinator struct {
	cfg   CoordConfig
	order []Cell

	mu       sync.Mutex
	table    *leaseTable
	jnl      *runner.Journal
	failure  error // divergence (or journal write failure); terminal
	resumed  int
	reissues int
	lates    int
	// workerMetrics holds the last registry snapshot each worker
	// piggybacked on a renew or result request, keyed by worker ID.
	// Snapshots survive worker re-registration (same ID, new
	// generation) — counters are cumulative per worker identity.
	workerMetrics map[string]*obs.RegistrySnapshot

	done     chan struct{}
	doneOnce sync.Once
	start    time.Time
}

// NewCoordinator validates the spec, opens (or resumes) the journal,
// and builds the lease table. now is the clock hook (nil = time.Now),
// exposed for deterministic expiry tests.
func NewCoordinator(cfg CoordConfig, now func() time.Time) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	order, err := cfg.Spec.Cells()
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:           cfg,
		order:         order,
		table:         newLeaseTable(order, cfg.LeaseTTL, cfg.StragglerFactor, now),
		workerMetrics: make(map[string]*obs.RegistrySnapshot),
		done:          make(chan struct{}),
		start:         time.Now(),
	}
	if cfg.Journal != "" {
		jnl, doneCells, err := runner.OpenJournalFS(cfg.FS, cfg.Journal, cfg.Spec.Fingerprint(), cfg.Resume)
		if err != nil {
			return nil, fmt.Errorf("dist: journal: %w", err)
		}
		c.jnl = jnl
		for key, raw := range doneCells {
			if err := c.table.markDone(key, raw); err != nil {
				jnl.Close()
				return nil, err
			}
			c.resumed++
		}
		mJournalResumed.Add(int64(c.resumed))
		if c.resumed > 0 {
			obs.Logger("dist").Info("resumed from journal",
				"path", cfg.Journal, "cells_done", c.resumed, "cells_total", len(order))
		}
	}
	gCellsDone.Set(float64(c.table.doneCount))
	if c.table.allDone() {
		c.finishLocked()
	}
	return c, nil
}

// Handler returns the coordinator's HTTP surface, wrapped in the shared
// panic-recovery and admission middleware from internal/serve.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/register", c.handleRegister)
	mux.HandleFunc("/v1/spec", c.handleSpec)
	mux.HandleFunc("/v1/lease", c.handleLease)
	mux.HandleFunc("/v1/renew", c.handleRenew)
	mux.HandleFunc("/v1/result", c.handleResult)
	mux.HandleFunc("/progress", c.handleProgress)
	mux.HandleFunc("/cluster/metrics", c.handleClusterMetrics)
	mux.Handle("/metrics", obs.PromHandler(nil))
	return serve.Recover("dist", mHTTPPanics.Inc,
		serve.Limit(maxInflight, mHTTPShed.Inc, mux))
}

// handleClusterMetrics merges the piggybacked per-worker snapshots and
// serves them as one exposition document: per-worker series first
// (worker="<id>" label), then the merged fleet totals with
// aggregate="cluster". Counters sum, gauges sum, histograms merge
// bucket-wise (all workers share the same code, hence the same bounds).
func (c *Coordinator) handleClusterMetrics(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	ids := make([]string, 0, len(c.workerMetrics))
	for id := range c.workerMetrics {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	snaps := make([]*obs.RegistrySnapshot, len(ids))
	for i, id := range ids {
		snaps[i] = c.workerMetrics[id]
	}
	c.mu.Unlock()

	var merged obs.RegistrySnapshot
	var mergeErrs []error
	labeled := make([]obs.LabeledSnapshot, 0, len(ids)+1)
	for i, id := range ids {
		labeled = append(labeled, obs.LabeledSnapshot{
			Labels: map[string]string{"worker": id}, Snap: *snaps[i],
		})
		mergeErrs = append(mergeErrs, obs.MergeSnapshots(&merged, *snaps[i])...)
	}
	labeled = append(labeled, obs.LabeledSnapshot{
		Labels: map[string]string{"aggregate": "cluster"}, Snap: merged,
	})
	var buf bytes.Buffer
	if err := obs.WritePromSnapshots(&buf, obs.PromPrefix, labeled); err != nil {
		serve.WriteError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	for _, err := range mergeErrs {
		obs.Logger("dist").Warn("cluster metrics merge skipped a series", "err", err)
	}
	w.Header().Set("Content-Type", obs.PromContentType)
	w.Write(buf.Bytes())
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if !decodePost(w, r, &req) {
		return
	}
	if req.Worker == "" {
		serve.WriteError(w, http.StatusBadRequest, "invalid_request", "worker id required")
		return
	}
	if req.Version != protocolVersion {
		msg := fmt.Sprintf("worker speaks protocol version %d, coordinator version %d: run a worker of the coordinator's build", req.Version, protocolVersion)
		if req.Version == 0 {
			msg = fmt.Sprintf("worker sent no protocol version (a build before version 1), coordinator speaks version %d: run a worker of the coordinator's build", protocolVersion)
		}
		obs.Logger("dist").Warn("worker refused at register", "worker", req.Worker, "version", req.Version, "want", protocolVersion)
		serve.WriteError(w, http.StatusBadRequest, "protocol_version", msg)
		return
	}
	c.mu.Lock()
	known := c.table.workers[req.Worker] != nil
	released := c.table.register(req.Worker)
	c.updateGaugesLocked()
	c.mu.Unlock()
	mWorkersRegistered.Inc()
	if known {
		obs.Logger("dist").Info("worker re-registered", "worker", req.Worker, "released_leases", released)
	} else {
		obs.Logger("dist").Info("worker registered", "worker", req.Worker)
	}
	serve.WriteJSON(w, http.StatusOK, registerResponse{Spec: c.cfg.Spec, ReleasedLeases: released})
}

func (c *Coordinator) handleSpec(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, c.cfg.Spec)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !decodePost(w, r, &req) {
		return
	}
	if req.Worker == "" {
		serve.WriteError(w, http.StatusBadRequest, "invalid_request", "worker id required")
		return
	}
	c.mu.Lock()
	res, err := c.table.acquire(req.Worker)
	if err != nil && !errors.Is(err, errAborted) {
		// Terminal acquire failure (stuck cell): abort the whole run.
		c.failLocked(err)
	}
	if err == nil && res.lease != nil && !res.speculative && c.table.cells[res.lease.key].issues > 1 {
		c.reissues++
		mCellsReissued.Inc()
	}
	c.updateGaugesLocked()
	c.mu.Unlock()
	switch {
	case errors.Is(err, errAborted):
		serve.WriteError(w, http.StatusConflict, "aborted", "run aborted on divergence")
	case err != nil:
		serve.WriteError(w, http.StatusConflict, "aborted", err.Error())
	case res.done:
		serve.WriteJSON(w, http.StatusOK, leaseResponse{Status: leaseDone})
	case res.none:
		serve.WriteJSON(w, http.StatusOK, leaseResponse{
			Status: leaseNone, RetryMS: c.cfg.LeaseTTL.Milliseconds() / 4,
		})
	default:
		mLeasesGranted.Inc()
		if res.speculative {
			mSpeculativeLeases.Inc()
			obs.Logger("dist").Info("speculative lease",
				"worker", req.Worker, "cell", res.cell.Key(), "lease", res.lease.id)
		}
		cell := res.cell
		serve.WriteJSON(w, http.StatusOK, leaseResponse{
			Status: leaseGranted, LeaseID: res.lease.id, Cell: &cell,
			TTLMS: c.cfg.LeaseTTL.Milliseconds(), Speculative: res.speculative,
		})
	}
}

func (c *Coordinator) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req renewRequest
	if !decodePost(w, r, &req) {
		return
	}
	c.mu.Lock()
	err := c.table.renew(req.Worker, req.LeaseID)
	if req.Metrics != nil && req.Worker != "" {
		c.workerMetrics[req.Worker] = req.Metrics
	}
	c.mu.Unlock()
	switch {
	case errors.Is(err, errAborted):
		serve.WriteError(w, http.StatusConflict, "aborted", "run aborted on divergence")
	case errors.Is(err, errLeaseGone):
		serve.WriteError(w, http.StatusGone, "lease_gone", "lease expired or re-issued; abandon the cell")
	case err != nil:
		serve.WriteError(w, http.StatusInternalServerError, "internal", err.Error())
	default:
		mLeasesRenewed.Inc()
		serve.WriteJSON(w, http.StatusOK, renewResponse{TTLMS: c.cfg.LeaseTTL.Milliseconds()})
	}
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var req resultRequest
	if !decodePost(w, r, &req) {
		return
	}
	if req.Worker == "" || req.Key == "" || len(req.Value) == 0 {
		serve.WriteError(w, http.StatusBadRequest, "invalid_request", "worker, key, and value required")
		return
	}

	c.mu.Lock()
	if req.Metrics != nil {
		c.workerMetrics[req.Worker] = req.Metrics
	}
	comp, err := c.table.complete(req.Worker, req.LeaseID, req.Key, req.Value, req.Hash)
	var div *Divergence
	if errors.As(err, &div) {
		c.failLocked(div)
	}
	if err == nil && comp.accepted {
		if comp.late {
			c.lates++
		}
		if jerr := c.journalLocked(req.Key, req.Value); jerr != nil {
			// A journal that stops persisting voids the resume guarantee;
			// better to abort loudly than complete a run whose checkpoint
			// silently diverged from reality.
			c.failLocked(fmt.Errorf("%w: %w", ErrJournalFailed, jerr))
			err = c.failure
		}
	}
	allDone := err == nil && c.table.allDone()
	if allDone {
		c.finishLocked()
	}
	c.updateGaugesLocked()
	c.mu.Unlock()

	switch {
	case div != nil:
		mDivergences.Inc()
		obs.Logger("dist").Error("divergent result — aborting run",
			"cell", div.Cell, "have", short(div.HaveHash), "have_worker", div.HaveWorker,
			"got", short(div.GotHash), "got_worker", div.GotWorker)
		serve.WriteError(w, http.StatusConflict, "divergence", div.Error())
	case errors.Is(err, errAborted):
		serve.WriteError(w, http.StatusConflict, "aborted", "run aborted on divergence")
	case err != nil:
		serve.WriteError(w, http.StatusBadRequest, "invalid_result", err.Error())
	case comp.duplicate:
		mResultsDuplicate.Inc()
		if comp.late {
			mLateResults.Inc()
		}
		serve.WriteJSON(w, http.StatusOK, resultResponse{Status: resultDuplicate})
	default:
		mResultsAccepted.Inc()
		if comp.late {
			mLateResults.Inc()
		}
		if comp.leaseAge > 0 {
			hCellSeconds.Observe(comp.leaseAge.Seconds())
		}
		if allDone {
			obs.Logger("dist").Info("sweep complete",
				"cells", len(c.order), "resumed", c.resumed, "reissues", c.reissues)
		}
		serve.WriteJSON(w, http.StatusOK, resultResponse{Status: resultAccepted})
	}
}

func (c *Coordinator) handleProgress(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, c.Progress())
}

// journalLocked appends an accepted result to the journal (if any).
// Caller holds mu; the fsync inside Record is acceptable at
// coordination traffic rates.
func (c *Coordinator) journalLocked(key string, value []byte) error {
	if c.jnl == nil {
		return nil
	}
	return c.jnl.Record(key, value)
}

// failLocked records the terminal failure and releases waiters.
func (c *Coordinator) failLocked(err error) {
	if c.failure == nil {
		c.failure = err
	}
	c.doneOnce.Do(func() { close(c.done) })
}

// finishLocked runs once when every cell is done: merge, close journal.
func (c *Coordinator) finishLocked() {
	c.doneOnce.Do(func() {
		if c.cfg.Out != "" {
			if err := WriteMergedFile(c.cfg.Out, c.order, c.table.results()); err != nil {
				c.failure = fmt.Errorf("dist: merge: %w", err)
			}
		}
		if c.jnl != nil {
			c.jnl.Close()
		}
		close(c.done)
	})
}

// ExpireNow runs one expiry sweep, returning expired leases to the
// pool. Called by Serve's ticker and directly by tests.
func (c *Coordinator) ExpireNow() int {
	c.mu.Lock()
	expired := c.table.expireSweep()
	c.updateGaugesLocked()
	c.mu.Unlock()
	for _, l := range expired {
		mLeasesExpired.Inc()
		obs.Logger("dist").Warn("lease expired",
			"lease", l.id, "worker", l.worker, "cell", l.key, "speculative", l.speculative)
	}
	return len(expired)
}

// ForceExpire expires every live lease regardless of deadline — the
// chaos knob fault drills and tests use to simulate mass worker death
// without waiting out real TTLs.
func (c *Coordinator) ForceExpire() int {
	c.mu.Lock()
	for _, l := range c.table.leases {
		l.deadline = c.table.now().Add(-time.Nanosecond)
	}
	c.mu.Unlock()
	return c.ExpireNow()
}

// Done is closed when the run completes or aborts.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Err returns the terminal failure (nil on clean completion). Valid
// after Done is closed.
func (c *Coordinator) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failure
}

// Wait blocks until completion, abort, or ctx cancellation.
func (c *Coordinator) Wait(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-c.done:
		return c.Err()
	}
}

// Results snapshots completed cell values (for in-process callers).
func (c *Coordinator) Results() map[string]json.RawMessage {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.table.results()
}

// Order returns the canonical cell order of this sweep.
func (c *Coordinator) Order() []Cell { return append([]Cell(nil), c.order...) }

// Progress snapshots the run state for /progress and obs manifests.
func (c *Coordinator) Progress() Progress {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.table
	leased, pending := 0, 0
	for _, e := range t.cells {
		switch e.status {
		case cellLeased:
			leased++
		case cellPending:
			pending++
		}
	}
	dups := 0
	p := Progress{
		Sweep:       c.cfg.Spec.Fingerprint(),
		Cells:       len(c.order),
		Done:        t.doneCount,
		Leased:      leased,
		Pending:     pending,
		Resumed:     c.resumed,
		Reissues:    c.reissues,
		ElapsedSec:  time.Since(c.start).Seconds(),
		SlowestCell: t.slowestKey,
		SlowestSec:  t.slowestDur.Seconds(),
		Aborted:     c.failure != nil,
		Divergence: func() *Divergence {
			var d *Divergence
			if errors.As(c.failure, &d) {
				return d
			}
			return nil
		}(),
	}
	now := t.now()
	for _, w := range t.workers {
		wp := WorkerProgress{
			ID: w.id, Generation: w.generation, LeasesHeld: w.leasesHeld,
			CellsDone: w.cellsDone, Duplicates: w.cellsDryRun,
			LastSeenMS: now.Sub(w.lastSeen).Milliseconds(),
			Metrics:    c.workerMetrics[w.id],
		}
		for _, l := range t.leases {
			if l.worker == w.id {
				wp.Leases = append(wp.Leases, l.key)
			}
		}
		sort.Strings(wp.Leases)
		dups += w.cellsDryRun
		p.Workers = append(p.Workers, wp)
	}
	sort.Slice(p.Workers, func(i, j int) bool { return p.Workers[i].ID < p.Workers[j].ID })
	p.Duplicates = dups
	// Crude ETA: remaining cells × mean completed-cell time ÷ live
	// workers holding leases (idle sweeps get no estimate).
	if remaining := len(c.order) - t.doneCount; remaining > 0 && len(t.durations) > 0 {
		var sum time.Duration
		for _, d := range t.durations {
			sum += d
		}
		mean := sum / time.Duration(len(t.durations))
		parallel := len(t.leases)
		if parallel < 1 {
			parallel = 1
		}
		p.ETASec = (time.Duration(remaining) * mean / time.Duration(parallel)).Seconds()
	}
	return p
}

func (c *Coordinator) updateGaugesLocked() {
	gCellsDone.Set(float64(c.table.doneCount))
	gLeasesLive.Set(float64(len(c.table.leases)))
	gWorkers.Set(float64(len(c.table.workers)))
}

// Start binds cfg.Addr and launches the HTTP server plus the
// lease-expiry loop in the background. It returns the base URL
// (http://host:port) and a stop function that shuts both down. The
// bound address is also logged as addr=http://... (the line smoke
// tests and operators parse).
func (c *Coordinator) Start(ctx context.Context) (string, func(), error) {
	ln, err := net.Listen("tcp", c.cfg.Addr)
	if err != nil {
		return "", nil, fmt.Errorf("dist: listen: %w", err)
	}
	base := "http://" + ln.Addr().String()
	obs.Logger("dist").Info("coordinator listening",
		"addr", base,
		"cells", len(c.order), "resumed", c.resumed,
		"lease_ttl", c.cfg.LeaseTTL, "journal", c.cfg.Journal)

	srv := &http.Server{Handler: c.Handler()}
	go srv.Serve(ln)

	expCtx, stopExpiry := context.WithCancel(ctx)
	go func() {
		tick := time.NewTicker(c.cfg.ExpiryEvery)
		defer tick.Stop()
		for {
			select {
			case <-expCtx.Done():
				return
			case <-tick.C:
				c.ExpireNow()
			}
		}
	}()

	var stopOnce sync.Once
	stop := func() {
		stopOnce.Do(func() {
			stopExpiry()
			shCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			defer cancel()
			if err := srv.Shutdown(shCtx); err != nil {
				// Graceful drain timed out — a stuck upload (or injected
				// chaos delay) is holding a connection open. Force-close so
				// stop() never leaks the listener or its conn goroutines.
				srv.Close()
			}
		})
	}
	return base, stop, nil
}

// Serve is Start + Wait: it blocks until the sweep completes, aborts,
// or ctx is cancelled. After a clean completion it lingers briefly so
// workers polling for leases hear "done" rather than a connection
// error.
func (c *Coordinator) Serve(ctx context.Context) error {
	_, stop, err := c.Start(ctx)
	if err != nil {
		return err
	}
	defer stop()

	runErr := c.Wait(ctx)
	if runErr == nil {
		// Let workers poll once more and hear "done".
		timer := time.NewTimer(c.cfg.Linger)
		select {
		case <-timer.C:
		case <-ctx.Done():
		}
		timer.Stop()
	}
	return runErr
}

// decodePost decodes a small JSON POST body, writing the error
// response itself on failure.
func decodePost(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		serve.WriteError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST")
		return false
	}
	r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		serve.WriteError(w, http.StatusBadRequest, "malformed_json", err.Error())
		return false
	}
	return true
}
