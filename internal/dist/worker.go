package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"time"

	"tevot/internal/backoff"
	"tevot/internal/core"
	"tevot/internal/experiments"
	"tevot/internal/obs"
	"tevot/internal/runner"
)

// WorkerConfig configures one worker process (or goroutine, in the
// in-process clusters that tests and chaos soaks build).
type WorkerConfig struct {
	// ID identifies the worker to the coordinator. Re-using an ID after
	// a restart releases the previous incarnation's leases immediately.
	// Default: w-<hostname>-<pid>.
	ID string
	// Coordinator is the coordinator's base URL (http://host:port).
	Coordinator string
	// TaskTimeout is the per-cell deadline (0 = none).
	TaskTimeout time.Duration
	// Lab, when non-nil, is a pre-built lab shared by in-process
	// workers (FUnits are safe for concurrent characterization). nil
	// means build one from the coordinator's spec — the once-per-process
	// cost the seed-addressed design pays instead of shipping operands.
	Lab *experiments.Lab
	// Metrics is the registry whose snapshot piggybacks on renew/result
	// requests for the coordinator's fleet aggregation. nil means a
	// private registry per RunWorker call — in-process multi-worker
	// tests pass distinct registries so per-worker counters stay apart.
	Metrics *obs.Registry
	// Transport replaces the HTTP transport under the worker's client —
	// the injection point for chaos.Transport. nil means the default.
	Transport http.RoundTripper
	// HeartbeatEvery overrides the lease-renewal interval (default
	// TTL/3). Chaos soaks stretch it past the TTL to force
	// renew-after-expiry races.
	HeartbeatEvery time.Duration
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.ID == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "local"
		}
		c.ID = fmt.Sprintf("w-%s-%d", host, os.Getpid())
	}
	return c
}

// workerMetrics is the per-worker counter set whose snapshots ride the
// wire to the coordinator. It lives in its own registry (not the
// process default) so in-process workers don't blend together and the
// snapshot stays small.
type workerMetrics struct {
	reg           *obs.Registry
	leases        *obs.Counter
	renewals      *obs.Counter
	cellsDone     *obs.Counter
	cellsFailed   *obs.Counter
	abandoned     *obs.Counter
	duplicates    *obs.Counter
	resultsOK     *obs.Counter
	resultsFailed *obs.Counter
	cellSeconds   *obs.Histogram
}

func newWorkerMetrics(reg *obs.Registry) *workerMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &workerMetrics{
		reg:         reg,
		leases:      reg.Counter("worker.leases_granted"),
		renewals:    reg.Counter("worker.renewals"),
		cellsDone:   reg.Counter("worker.cells_done"),
		cellsFailed: reg.Counter("worker.cells_failed"),
		abandoned:   reg.Counter("worker.cells_abandoned"),
		duplicates:  reg.Counter("worker.results_duplicate"),
		// Per-worker report-outcome split: every completed cell attempts
		// exactly one Report, so cells_done == results_ok +
		// results_duplicate + results_failed is an identity the chaos soak
		// asserts per worker.
		resultsOK:     reg.Counter("worker.results_ok"),
		resultsFailed: reg.Counter("worker.results_failed"),
		cellSeconds:   reg.Histogram("worker.cell_seconds", obs.DurationBuckets),
	}
}

func (m *workerMetrics) snapshot() *obs.RegistrySnapshot {
	s := m.reg.Snapshot()
	return &s
}

// RunWorker registers with the coordinator, rebuilds the lab from the
// published spec, then loops lease → execute → report until the
// coordinator says the sweep is done (nil), the run aborts
// (ErrRunAborted), or ctx is cancelled.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	cfg = cfg.withDefaults()
	if cfg.Coordinator == "" {
		return errors.New("dist: worker: coordinator URL required")
	}
	log := obs.Logger("dist").With("worker", cfg.ID)
	client := NewClientWith(cfg.Coordinator, int64(backoff.Hash(0, cfg.ID)),
		ClientOptions{Transport: cfg.Transport})
	wm := newWorkerMetrics(cfg.Metrics)

	spec, released, err := client.Register(ctx, cfg.ID)
	if err != nil {
		return fmt.Errorf("dist: worker %s: register: %w", cfg.ID, err)
	}
	if released > 0 {
		log.Info("re-registered; previous leases released", "released", released)
	}
	lab := cfg.Lab
	if lab == nil {
		log.Info("building lab from spec", "fingerprint", spec.Fingerprint())
		start := time.Now()
		lab, err = spec.NewLab()
		if err != nil {
			return fmt.Errorf("dist: worker %s: lab: %w", cfg.ID, err)
		}
		log.Info("lab ready", "took", time.Since(start).Round(time.Millisecond))
	}
	opts := lab.CharOpts(1)

	idle := backoff.Policy{Base: 50 * time.Millisecond, Max: 2 * time.Second,
		Seed: int64(backoff.Hash(1, cfg.ID))}
	for idleSpins := 0; ; {
		lr, err := client.Lease(ctx, cfg.ID)
		switch {
		case errors.Is(err, ErrRunAborted):
			log.Error("run aborted by coordinator", "err", err)
			return err
		case err != nil:
			return fmt.Errorf("dist: worker %s: lease: %w", cfg.ID, err)
		}
		switch lr.Status {
		case leaseDone:
			log.Info("sweep done; exiting")
			return nil
		case leaseNone:
			idleSpins++
			delay := idle.Delay("idle", idleSpins)
			if server := time.Duration(lr.RetryMS) * time.Millisecond; server > delay {
				delay = server
			}
			timer := time.NewTimer(delay)
			select {
			case <-ctx.Done():
				timer.Stop()
				return ctx.Err()
			case <-timer.C:
			}
		case leaseGranted:
			idleSpins = 0
			wm.leases.Inc()
			if err := runLease(ctx, client, log, lab, opts, cfg, wm, lr); err != nil {
				if errors.Is(err, ErrRunAborted) || errors.Is(err, context.Canceled) {
					return err
				}
				// Cell failed or lease was lost: log and move on — the
				// lease expires and the coordinator re-issues the cell
				// (possibly right back to us), up to its issue limit.
				log.Warn("cell not completed", "cell", lr.Cell.Key(), "err", err)
			}
		default:
			return fmt.Errorf("dist: worker %s: unknown lease status %q", cfg.ID, lr.Status)
		}
	}
}

// runLease executes one leased cell: heartbeat renewals keep the lease
// alive while the (potentially minutes-long) characterization runs
// through internal/runner for panic isolation and the per-cell
// deadline; the result ships back with its content hash.
func runLease(ctx context.Context, client *Client, log *slog.Logger,
	lab *experiments.Lab, opts core.CharacterizeOptions, cfg WorkerConfig,
	wm *workerMetrics, lr leaseResponse) error {
	cell := *lr.Cell
	key := cell.Key()
	ttl := time.Duration(lr.TTLMS) * time.Millisecond
	cellStart := time.Now()

	// cellCtx is cancelled the moment the coordinator disowns the lease,
	// so a superseded worker stops burning CPU on a cell someone else
	// now owns.
	cellCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	hbStop := make(chan struct{})
	hbErr := make(chan error, 1)
	go func() {
		interval := cfg.HeartbeatEvery
		if interval <= 0 {
			interval = ttl / 3
		}
		if interval <= 0 {
			interval = time.Second
		}
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-cellCtx.Done():
				return
			case <-tick.C:
				// Each heartbeat carries a fresh metrics snapshot, so the
				// coordinator's fleet view is at most one renew interval
				// stale for any worker still holding a lease.
				if err := client.Renew(cellCtx, cfg.ID, lr.LeaseID, wm.snapshot()); err != nil {
					if errors.Is(err, ErrLeaseGone) || errors.Is(err, ErrRunAborted) {
						hbErr <- err
						cancel()
						return
					}
					log.Warn("renew failed; will retry", "lease", lr.LeaseID, "err", err)
				} else {
					wm.renewals.Inc()
				}
			}
		}
	}()

	rcfg := runner.Config{
		Name:        "dist-worker " + cfg.ID,
		Workers:     1,
		TaskTimeout: cfg.TaskTimeout,
	}
	results, rep, runErr := runner.Run(cellCtx, rcfg, []runner.Task[json.RawMessage]{{
		Key: key,
		Run: func(ctx context.Context) (json.RawMessage, error) {
			row, err := RunCell(ctx, lab, cell, opts)
			if err != nil {
				return nil, err
			}
			return MarshalRow(row)
		},
	}})
	close(hbStop)

	var leaseLost error
	select {
	case err := <-hbErr:
		if !errors.Is(err, ErrLeaseGone) {
			return err
		}
		leaseLost = err
	default:
	}
	raw, ok := results[key]
	if !ok {
		// No result to report. Lease loss cancelled the cell mid-flight —
		// abandon it; otherwise it genuinely failed.
		if leaseLost != nil {
			mCellsAbandoned.Inc()
			wm.abandoned.Inc()
			return fmt.Errorf("dist: lease %s lost mid-cell: %w", lr.LeaseID, leaseLost)
		}
		wm.cellsFailed.Inc()
		if runErr != nil {
			return runErr
		}
		if len(rep.Failures) > 0 {
			return fmt.Errorf("dist: cell failed: %w", rep.Failures[0])
		}
		return fmt.Errorf("dist: cell %s produced no result", key)
	}
	if leaseLost != nil {
		// The cell finished before (or raced) the lease loss. The result
		// is still valid — cells are deterministic — and the coordinator
		// accepts late results for incomplete cells, so report it rather
		// than throw away minutes of work. Found by the chaos soak: a
		// delayed renew RPC could outlive the whole cell, and the computed
		// result was silently discarded.
		log.Info("lease lost after cell completed; reporting late result anyway",
			"cell", key, "lease", lr.LeaseID)
	}

	// Bump the completion counters BEFORE taking the snapshot that rides
	// the result upload: an accepted result is then always covered by a
	// coordinator-held snapshot that counts it, even if this worker is
	// SIGKILLed the moment Report returns. That ordering is what makes
	// the /cluster/metrics balance check (Σ worker.cells_done == grid
	// size) exact rather than eventually-consistent.
	wm.cellsDone.Inc()
	wm.cellSeconds.Observe(time.Since(cellStart).Seconds())

	// Report on the parent ctx: even if the lease just expired, the
	// result is still valid (determinism) and the coordinator accepts
	// late results for incomplete cells.
	dup, err := client.Report(ctx, resultRequest{
		Worker: cfg.ID, LeaseID: lr.LeaseID, Key: key,
		Value: raw, Hash: HashValue(raw),
		Metrics: wm.snapshot(),
	})
	if err != nil {
		wm.resultsFailed.Inc()
		return fmt.Errorf("dist: report %s: %w", key, err)
	}
	if dup {
		wm.duplicates.Inc()
		log.Info("result was a duplicate (byte-identical)", "cell", key)
	} else {
		wm.resultsOK.Inc()
		if lr.Speculative {
			log.Info("speculative copy won", "cell", key)
		}
	}
	return nil
}
