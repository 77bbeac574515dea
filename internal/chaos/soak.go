package chaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tevot/internal/dist"
	"tevot/internal/experiments"
	"tevot/internal/obs"
	"tevot/internal/runner"
)

// SoakConfig configures one soak run: an in-process cluster driven
// through one fault Schedule, with invariants checked at the end.
type SoakConfig struct {
	// Spec is the sweep to run. Keep it small — a soak's value is in
	// how many schedules it covers, not how big each sweep is.
	Spec dist.Spec
	// Workers is the in-process worker count (default 3).
	Workers int
	// Lab, when non-nil, is shared by all workers and the reference run
	// (build once per process — it dominates setup time otherwise).
	Lab *experiments.Lab
	// Dir is the scratch directory for the journal and merged outputs
	// (default: a fresh os.MkdirTemp, removed on success).
	Dir string
	// Reference is the fault-free merged JSONL to byte-compare against;
	// nil means compute it in-process first.
	Reference []byte
	// LeaseTTL for the coordinator (default 600ms — short enough that
	// expiry recovery actually happens inside a soak's lifetime).
	LeaseTTL time.Duration
	// Deadline bounds the whole soak (default 90s): exceeding it is the
	// livelock invariant failing, not a timeout to tune away.
	Deadline time.Duration
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

// SoakResult reports what one schedule did and how the run ended.
type SoakResult struct {
	Schedule Schedule
	// Completed is true when the sweep finished and merged; false means
	// the run aborted loudly (only acceptable under loud disk faults —
	// see Soak).
	Completed bool
	// AbortedLoudly is set when the coordinator aborted with
	// ErrJournalFailed under a schedule that armed loud disk faults.
	AbortedLoudly bool
	Rows          int
	// Incarnations is how many coordinator lifetimes the run spanned.
	Incarnations int
	// Accepted/Duplicates sum accepted and duplicate results across
	// incarnations (from per-incarnation Progress snapshots).
	Accepted   int
	Duplicates int
	// NetInjected/DiskInjected count fired faults per plane.
	NetInjected  int
	DiskInjected int
	// WorkerRestarts counts supervisor respawns (excluding kills).
	WorkerRestarts int
	Elapsed        time.Duration
}

func (r SoakResult) String() string {
	state := "completed"
	if !r.Completed {
		state = "aborted-loudly"
	}
	return fmt.Sprintf("%s: %s rows=%d incarnations=%d accepted=%d dups=%d net=%d disk=%d restarts=%d in %v",
		r.Schedule, state, r.Rows, r.Incarnations, r.Accepted, r.Duplicates,
		r.NetInjected, r.DiskInjected, r.WorkerRestarts, r.Elapsed.Round(time.Millisecond))
}

// Soak runs one schedule end to end and checks the invariants:
//
//  1. merge byte-identity: the merged JSONL equals the fault-free
//     reference, whatever the schedule did;
//  2. row completeness: exactly one row per cell of the spec;
//  3. acceptance floor: every cell was accepted at least once across
//     coordinator incarnations (Σ accepted ≥ cells);
//  4. per-worker report accounting: cells_done == results_ok +
//     results_duplicate + results_failed for every worker, exactly;
//  5. cluster balance, redelivery-corrected: Σ(accepted+duplicates)
//     stays within the bounds transport redelivery and response loss
//     permit (exact equality with Σ cells_done when no faults fired);
//  6. no goroutine leaks: the count settles back to baseline;
//  7. bounded completion: everything above happens inside Deadline.
//
// One terminal state other than completion is accepted: a schedule
// that arms loud disk faults (ENOSPC, short write, fsync failure) may
// abort the run with dist.ErrJournalFailed — the coordinator's
// documented response to a journal that stops persisting. Then Soak
// instead asserts the abort was clean: workers all exited, no merged
// output was written, no goroutines leaked.
func Soak(ctx context.Context, cfg SoakConfig, sched Schedule) (SoakResult, error) {
	start := time.Now()
	res := SoakResult{Schedule: sched}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 3
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 600 * time.Millisecond
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 90 * time.Second
	}
	spec := cfg.Spec
	cells, err := spec.Cells()
	if err != nil {
		return res, err
	}
	ownDir := false
	if cfg.Dir == "" {
		d, err := os.MkdirTemp("", "chaos-soak-*")
		if err != nil {
			return res, err
		}
		cfg.Dir = d
		ownDir = true
	}

	// Reference artifact (fault-free bytes) if not supplied.
	if cfg.Reference == nil {
		refPath := filepath.Join(cfg.Dir, "ref.jsonl")
		_, rep, err := dist.SingleProcessMerged(ctx, spec, runner.Config{}, refPath)
		if err == nil {
			err = rep.Err()
		}
		if err != nil {
			return res, fmt.Errorf("chaos: reference run: %w", err)
		}
		cfg.Reference, err = os.ReadFile(refPath)
		if err != nil {
			return res, err
		}
	}
	lab := cfg.Lab
	if lab == nil {
		lab, err = spec.NewLab()
		if err != nil {
			return res, err
		}
	}

	baseline := runtime.NumGoroutine()
	ctx, cancelAll := context.WithTimeout(ctx, cfg.Deadline)
	defer cancelAll()

	// Fault planes. One transport shared by every worker so the
	// delivery books cover the whole fleet; the /v1/result books back
	// the redelivery-corrected balance invariant.
	clock := NewClock()
	fs := NewFS(sched.Seed, sched.Disk)
	transport := NewTransport(sched.Seed, sched.Net, nil)
	transport.Track("/v1/result")
	defer closeIdle(transport)

	journal := filepath.Join(cfg.Dir, "journal.jsonl")
	merged := filepath.Join(cfg.Dir, "merged.jsonl")
	ccfg := dist.CoordConfig{
		Spec:     spec,
		Addr:     "127.0.0.1:0",
		LeaseTTL: cfg.LeaseTTL,
		Journal:  journal,
		FS:       fs,
		Out:      merged,
		Linger:   time.Millisecond,
	}
	coord, err := dist.NewCoordinator(ccfg, clock.Now)
	if err != nil {
		if sched.armsLoudDiskFaults() && (errors.Is(err, ErrNoSpace) || errors.Is(err, ErrSyncFailed)) {
			// The journal refused its very first write (header): the run
			// aborts before any worker starts. Loud and clean by
			// construction — nothing to tear down, nothing merged.
			res.AbortedLoudly = true
			res.DiskInjected = fs.Injected()
			res.Elapsed = time.Since(start)
			logf("  %s", res)
			if ownDir {
				os.RemoveAll(cfg.Dir)
			}
			return res, nil
		}
		return res, err
	}
	base, stop, err := coord.Start(ctx)
	if err != nil {
		return res, err
	}
	res.Incarnations = 1
	var snapshots []dist.Progress

	// Workers: one supervised slot each. A slot that exits with a
	// transient error (coordinator mid-restart, retry budget exhausted)
	// respawns with the same ID — re-registration releases its stale
	// leases. Killed slots stay dead.
	hb := time.Duration(0)
	if sched.HeartbeatLag {
		hb = cfg.LeaseTTL * 2 // guarantees expiry mid-cell
	}
	regs := make([]*obs.Registry, cfg.Workers)
	killCh := make([]context.CancelFunc, cfg.Workers)
	slotErr := make([]error, cfg.Workers)
	var restarts atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < cfg.Workers; i++ {
		i := i
		regs[i] = obs.NewRegistry()
		wctx, wcancel := context.WithCancel(ctx)
		killCh[i] = wcancel
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer wcancel()
			for attempt := 0; ; attempt++ {
				err := dist.RunWorker(wctx, dist.WorkerConfig{
					ID:             fmt.Sprintf("soak-%d", i),
					Coordinator:    base,
					Lab:            lab,
					Metrics:        regs[i],
					Transport:      transport,
					HeartbeatEvery: hb,
					Retries:        1,
				})
				if err == nil || errors.Is(err, context.Canceled) ||
					errors.Is(err, context.DeadlineExceeded) || errors.Is(err, dist.ErrRunAborted) {
					slotErr[i] = err
					return
				}
				if attempt >= 8 {
					slotErr[i] = fmt.Errorf("chaos: worker %d gave up after %d restarts: %w", i, attempt, err)
					return
				}
				restarts.Add(1)
				select {
				case <-wctx.Done():
					slotErr[i] = wctx.Err()
					return
				case <-time.After(50 * time.Millisecond):
				}
			}
		}()
	}

	// waitDone polls the live coordinator until at least n cells are
	// done, the run ends, or the deadline hits.
	waitDone := func(n int) bool {
		for {
			select {
			case <-coord.Done():
				return false
			case <-ctx.Done():
				return false
			case <-time.After(10 * time.Millisecond):
			}
			if coord.Progress().Done >= n {
				return true
			}
		}
	}

	// ---- The schedule's lifecycle events, staged sequentially. ----
	waitDone(1)
	for k := 0; k < sched.KillWorkers && k < cfg.Workers-1; k++ {
		logf("  killing worker %d", k)
		killCh[k]()
	}
	for j := 0; j < sched.ClockJumps; j++ {
		select {
		case <-coord.Done():
		case <-ctx.Done():
		case <-time.After(50 * time.Millisecond):
			logf("  clock jump +%v", cfg.LeaseTTL*2)
			clock.Jump(cfg.LeaseTTL * 2)
			coord.ExpireNow()
		}
	}
	if sched.ClockFreeze {
		logf("  clock freeze for %v", cfg.LeaseTTL+100*time.Millisecond)
		clock.Freeze()
		select {
		case <-ctx.Done():
		case <-time.After(cfg.LeaseTTL + 100*time.Millisecond):
		}
		clock.Thaw()
		coord.ExpireNow()
	}
	if sched.CoordCrash && waitDone(2) {
		logf("  crashing coordinator (journal tear + resume)")
		stop()
		snapshots = append(snapshots, coord.Progress())
		kept := fs.Crash()
		fs.Reset()
		addr := strings.TrimPrefix(base, "http://")
		ccfg.Addr = addr
		ccfg.Resume = true
		var nc *dist.Coordinator
		var nbase string
		var nstop func()
		for retry := 0; ; retry++ {
			nc, err = dist.NewCoordinator(ccfg, clock.Now)
			if err == nil {
				nbase, nstop, err = nc.Start(ctx)
			}
			if err == nil {
				break
			}
			if retry >= 100 || ctx.Err() != nil {
				return res, fmt.Errorf("chaos: coordinator resume on %s: %w", addr, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
		coord, base, stop = nc, nbase, nstop
		res.Incarnations++
		logf("  resumed: journal kept %v bytes, %d cells recovered",
			kept[journal], coord.Progress().Resumed)
	}

	// ---- Wait for the run to end, then tear down. ----
	termErr := func() error {
		select {
		case <-coord.Done():
			return coord.Err()
		case <-ctx.Done():
			return fmt.Errorf("chaos: soak deadline exceeded (livelock?): %w", ctx.Err())
		}
	}()
	// Give workers one beat to hear "done" on their next poll, then cut
	// them off; either exit path is fine.
	if termErr == nil {
		select {
		case <-time.After(50 * time.Millisecond):
		case <-ctx.Done():
		}
	}
	for _, cancel := range killCh {
		cancel()
	}
	wg.Wait()
	stop()
	snapshots = append(snapshots, coord.Progress())
	res.Elapsed = time.Since(start)
	res.NetInjected = transport.Injected()
	res.DiskInjected = fs.Injected()
	res.WorkerRestarts = int(restarts.Load())
	for _, p := range snapshots {
		res.Accepted += p.Done - p.Resumed
		res.Duplicates += p.Duplicates
	}

	// ---- Terminal-state classification. ----
	if termErr != nil {
		if errors.Is(termErr, dist.ErrJournalFailed) && sched.armsLoudDiskFaults() {
			// Loud abort: the documented response to a journal that stops
			// persisting. Assert it was clean.
			res.AbortedLoudly = true
			if _, err := os.Stat(merged); err == nil {
				return res, fmt.Errorf("chaos: %s: aborted run left a merged output claiming success", sched)
			}
			if err := checkGoroutines(baseline); err != nil {
				return res, fmt.Errorf("chaos: %s: %w", sched, err)
			}
			logf("  %s", res)
			if ownDir {
				os.RemoveAll(cfg.Dir)
			}
			return res, nil
		}
		return res, fmt.Errorf("chaos: %s: run failed: %w", sched, termErr)
	}
	res.Completed = true

	// ---- Invariants. ----
	got, err := os.ReadFile(merged)
	if err != nil {
		return res, fmt.Errorf("chaos: %s: merged output missing: %w", sched, err)
	}
	res.Rows = bytes.Count(got, []byte("\n"))
	if !bytes.Equal(got, cfg.Reference) {
		return res, fmt.Errorf("chaos: %s: merged output differs from fault-free reference (%d vs %d bytes)",
			sched, len(got), len(cfg.Reference))
	}
	if res.Rows != len(cells) {
		return res, fmt.Errorf("chaos: %s: merged rows %d != cells %d", sched, res.Rows, len(cells))
	}
	if res.Accepted < len(cells) {
		return res, fmt.Errorf("chaos: %s: only %d acceptances across %d incarnations for %d cells — some cell completed without ever being accepted",
			sched, res.Accepted, res.Incarnations, len(cells))
	}

	// Per-worker report accounting (exact): every completed cell
	// attempts exactly one report, with exactly one outcome.
	var sumDone, sumOK, sumDup, sumFailed int64
	for i, reg := range regs {
		s := reg.Snapshot()
		done := s.Counters["worker.cells_done"]
		ok := s.Counters["worker.results_ok"]
		dup := s.Counters["worker.results_duplicate"]
		failed := s.Counters["worker.results_failed"]
		if done != ok+dup+failed {
			return res, fmt.Errorf("chaos: %s: worker %d report accounting broken: cells_done=%d != ok=%d + dup=%d + failed=%d",
				sched, i, done, ok, dup, failed)
		}
		sumDone += done
		sumOK += ok
		sumDup += dup
		sumFailed += failed
	}

	// Cluster balance, redelivery-corrected. Server-side acceptances +
	// duplicates == worker-received outcomes + transport-injected
	// redeliveries + responses generated but lost in flight. The loss
	// term is bounded by events that can strand a generated response:
	// mangled/cancelled result exchanges and teardowns.
	generated := int64(res.Accepted + res.Duplicates)
	received := sumOK + sumDup
	_, excess := transport.Deliveries("/v1/result")
	if generated < received {
		return res, fmt.Errorf("chaos: %s: workers received %d result ACKs but coordinators only generated %d",
			sched, received, generated)
	}
	lossBound := int64(res.NetInjected + sched.KillWorkers + res.WorkerRestarts + 2*cfg.Workers + 2)
	if generated > received+int64(excess)+lossBound {
		return res, fmt.Errorf("chaos: %s: balance drift: generated=%d received=%d excess=%d (bound %d)",
			sched, generated, received, excess, lossBound)
	}
	if sched.quiet() {
		// No faults armed and none fired: the smoke-test identity must
		// be exact — Σ cells_done == rows + duplicates, zero redelivery.
		if excess != 0 {
			return res, fmt.Errorf("chaos: %s: fault-free run recorded %d excess deliveries", sched, excess)
		}
		if sumDone != int64(res.Rows+res.Duplicates) {
			return res, fmt.Errorf("chaos: %s: fault-free balance broken: cells_done=%d != rows=%d + dups=%d",
				sched, sumDone, res.Rows, res.Duplicates)
		}
	}

	// Worker exit audit: no slot may have given up (transient errors
	// respawn; only aborts/cancels are legitimate exits, and this run
	// completed).
	for i, err := range slotErr {
		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return res, fmt.Errorf("chaos: %s: worker %d exited wrongly: %w", sched, i, err)
		}
	}

	closeIdle(transport)
	if err := checkGoroutines(baseline); err != nil {
		return res, fmt.Errorf("chaos: %s: %w", sched, err)
	}
	logf("  %s", res)
	if ownDir {
		os.RemoveAll(cfg.Dir)
	}
	return res, nil
}

// armsLoudDiskFaults reports whether the schedule can make a journal
// write return an error (vs the silent sync-lie/torn kinds).
func (s Schedule) armsLoudDiskFaults() bool {
	for _, r := range s.Disk {
		switch r.Kind {
		case FaultENOSPC, FaultShortWrite, FaultSyncFail:
			return true
		}
	}
	return false
}

// quiet reports whether the schedule armed nothing at all (a control
// run).
func (s Schedule) quiet() bool {
	net, disk, clk := s.Planes()
	return !net && !disk && !clk && s.KillWorkers == 0 && !s.CoordCrash
}

// checkGoroutines polls for the goroutine count to settle back near
// baseline; a stuck count is a leaked heartbeat, server conn, or
// supervisor.
func checkGoroutines(baseline int) error {
	const slack = 12
	deadline := time.Now().Add(3 * time.Second)
	n := 0
	for {
		n = runtime.NumGoroutine()
		if n <= baseline+slack {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: goroutine leak: %d running, baseline %d (+%d slack)", n, baseline, slack)
		}
		runtime.Gosched()
		time.Sleep(25 * time.Millisecond)
	}
}

func closeIdle(t *Transport) {
	if tr, ok := t.next.(*http.Transport); ok {
		tr.CloseIdleConnections()
	} else if tr, ok := t.next.(interface{ CloseIdleConnections() }); ok {
		tr.CloseIdleConnections()
	}
}
