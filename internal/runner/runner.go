// Package runner is a fault-tolerant task executor for characterization
// sweeps. The paper-scale evaluation is a 100-corner × 4-FU ×
// multi-dataset grid that runs for hours; one panicking cell or one lost
// process must not discard the rest. The runner provides:
//
//   - a bounded worker pool with context cancellation and per-task
//     deadlines;
//   - panic recovery, converting panics deep inside a cell (netlist
//     building, simulation, training) into typed per-cell errors;
//   - retry with exponential backoff + deterministic jitter for failures
//     classified as transient, plus a seeded fault-injection hook so the
//     retry/timeout paths are testable in CI without flakiness;
//   - graceful degradation: failed cells are recorded in the Report and
//     the sweep continues;
//   - JSON-lines checkpointing: each completed cell is appended and
//     fsynced, and a resumed run skips already-done cells, producing
//     results identical to an uninterrupted run.
//
// Every cell runs at least once (failed cells are re-attempted on
// resume); cell results must therefore be deterministic functions of
// their key, which all TEVoT characterization cells are.
package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"tevot/internal/backoff"
	"tevot/internal/obs"
)

// Config controls one sweep execution.
type Config struct {
	// Name identifies the sweep (and its scale) in checkpoint headers;
	// resuming a checkpoint written under a different name is refused.
	Name string
	// Workers bounds concurrent cells; <= 0 means GOMAXPROCS.
	Workers int
	// TaskTimeout is the per-attempt deadline; 0 means none.
	TaskTimeout time.Duration
	// Retries is the number of extra attempts granted to failures
	// classified as Transient.
	Retries int
	// Backoff is the base delay before the first retry (default 100ms);
	// it doubles per attempt up to MaxBackoff (default 5s), with
	// deterministic per-cell jitter in [0.5x, 1.5x).
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Seed drives the backoff jitter (and, by convention, fault
	// injectors), keeping runs reproducible.
	Seed int64
	// Checkpoint is the path of the JSONL checkpoint file ("" disables
	// checkpointing). Resume loads it first and skips completed cells.
	Checkpoint string
	Resume     bool
	// Classify decides whether a failure is retryable; nil means
	// DefaultClassify.
	Classify func(error) Class
	// Inject, when non-nil, is consulted before every attempt; a non-nil
	// return fails the attempt with that error. Used for deterministic
	// fault injection in tests.
	Inject FaultFn
	// Logf receives progress lines (retries, failures); nil is silent.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "sweep"
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Backoff <= 0 {
		c.Backoff = 100 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 5 * time.Second
	}
	if c.Classify == nil {
		c.Classify = DefaultClassify
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Task is one cell of a sweep: a stable key plus the work. Run must be a
// deterministic function of the key and must respect ctx for prompt
// deadline handling (the pool survives tasks that don't, but their
// goroutine runs to completion in the background).
type Task[R any] struct {
	Key string
	Run func(ctx context.Context) (R, error)
}

// Report summarizes a sweep: how many cells succeeded, were resumed from
// the checkpoint, failed (with their errors), or were not finished
// because the sweep was interrupted.
type Report struct {
	Sweep     string
	Total     int
	Resumed   int
	Succeeded int
	Failed    int
	// Skipped cells were never attempted, or had an attempt or backoff
	// cut short, because the sweep context was cancelled; a resumed run
	// executes them.
	Skipped int
	// Retried is the total number of extra attempts spent across cells.
	Retried int
	// Failures lists failed cells, sorted by key.
	Failures []*CellError
	// Interrupted reports that the sweep context was cancelled.
	Interrupted bool
	// Elapsed is the sweep's wall time.
	Elapsed time.Duration
	// SlowestKey/SlowestDur identify the longest-running cell actually
	// executed this run (resumed cells don't count; "" when none ran).
	SlowestKey string
	SlowestDur time.Duration
}

// Err joins the per-cell failures, or returns nil when every cell
// succeeded and none were skipped.
func (r *Report) Err() error {
	errs := make([]error, 0, len(r.Failures))
	for _, f := range r.Failures {
		errs = append(errs, f)
	}
	if r.Skipped > 0 {
		errs = append(errs, fmt.Errorf("runner: %d cell(s) not finished (sweep interrupted)", r.Skipped))
	}
	return errors.Join(errs...)
}

// Summary renders a one-line (plus per-failure lines) human report:
// cell totals, retry spend, wall time, and the slowest cell — the
// lines the CLIs print at the end of a sweep.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sweep %q: %d cells — %d ok, %d resumed, %d failed, %d skipped (%d retries)",
		r.Sweep, r.Total, r.Succeeded, r.Resumed, r.Failed, r.Skipped, r.Retried)
	if r.Elapsed > 0 {
		fmt.Fprintf(&b, " in %v", r.Elapsed.Round(time.Millisecond))
	}
	if r.SlowestKey != "" {
		fmt.Fprintf(&b, "\n  slowest cell: %s (%v)", r.SlowestKey, r.SlowestDur.Round(time.Millisecond))
	}
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "\n  FAILED %s after %d attempt(s): %v", f.Key, f.Attempts, f.Err)
	}
	return b.String()
}

// cellResult is one finished cell as it flows from a worker to the
// collector. A cell the sweep's cancellation cut short is skipped, not
// failed: nothing went wrong with it.
type cellResult[R any] struct {
	key      string
	value    R
	attempts int
	dur      time.Duration
	err      error
	skipped  bool
}

// Run executes the tasks on a bounded worker pool and returns the
// per-key results plus a Report. Per-cell failures do NOT produce a
// non-nil error — they are recorded in the Report and the sweep
// continues. The returned error is reserved for infrastructure problems
// (unusable checkpoint file, duplicate keys) and for ctx cancellation,
// in which case the partial results and Report are still returned.
func Run[R any](ctx context.Context, cfg Config, tasks []Task[R]) (map[string]R, *Report, error) {
	cfg = cfg.withDefaults()
	start := time.Now()
	rep := &Report{Sweep: cfg.Name, Total: len(tasks)}
	defer func() { rep.Elapsed = time.Since(start) }()
	results := make(map[string]R, len(tasks))
	log := obs.Logger("runner")

	seen := make(map[string]bool, len(tasks))
	for _, t := range tasks {
		if t.Key == "" {
			return nil, rep, fmt.Errorf("runner: task with empty key")
		}
		if seen[t.Key] {
			return nil, rep, fmt.Errorf("runner: duplicate task key %q", t.Key)
		}
		seen[t.Key] = true
	}

	var done map[string]json.RawMessage
	var jnl *Journal
	if cfg.Checkpoint != "" {
		var err error
		jnl, done, err = OpenJournal(cfg.Checkpoint, cfg.Name, cfg.Resume)
		if err != nil {
			return nil, rep, err
		}
		defer jnl.Close()
	}

	todo := make([]Task[R], 0, len(tasks))
	for _, t := range tasks {
		if raw, ok := done[t.Key]; ok {
			var v R
			if err := json.Unmarshal(raw, &v); err != nil {
				return nil, rep, fmt.Errorf("runner: checkpoint value for %s does not decode: %w", t.Key, err)
			}
			results[t.Key] = v
			rep.Resumed++
			continue
		}
		todo = append(todo, t)
	}
	if rep.Resumed > 0 {
		cfg.Logf("resumed %d/%d cells from %s", rep.Resumed, rep.Total, cfg.Checkpoint)
		log.Info("resumed from checkpoint", "sweep", cfg.Name,
			"resumed", rep.Resumed, "total", rep.Total, "checkpoint", cfg.Checkpoint)
	}

	nw := cfg.Workers
	if nw > len(todo) {
		nw = len(todo)
	}

	// Publish the live progress state before the first worker starts so
	// a /progress poll never races an inconsistent half-sweep.
	st := &progressState{
		sweep:       cfg.Name,
		total:       int64(len(tasks)),
		workers:     int64(nw),
		retryBudget: int64(cfg.Retries) * int64(len(todo)),
		start:       start,
	}
	st.resumed.Store(int64(rep.Resumed))
	liveSweep.Store(st)
	defer st.finished.Store(true)
	mCellsTotal.Add(int64(len(tasks)))
	mCellsResumed.Add(int64(rep.Resumed))
	log.Debug("sweep starting", "sweep", cfg.Name,
		"cells", len(tasks), "todo", len(todo), "workers", nw)
	taskCh := make(chan Task[R])
	resCh := make(chan cellResult[R])
	var wg sync.WaitGroup
	for i := 0; i < nw; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range taskCh {
				st.running.Add(1)
				r := execute(ctx, cfg, t, st)
				st.running.Add(-1)
				resCh <- r
			}
		}()
	}
	go func() {
		defer close(taskCh)
		for _, t := range todo {
			select {
			case taskCh <- t:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(resCh)
	}()

	var infraErr error
	for r := range resCh {
		rep.Retried += r.attempts - 1
		if r.skipped {
			continue
		}
		if r.dur > rep.SlowestDur {
			rep.SlowestKey, rep.SlowestDur = r.key, r.dur
		}
		if r.err != nil {
			ce := &CellError{Key: r.key, Attempts: r.attempts, Err: r.err}
			rep.Failed++
			rep.Failures = append(rep.Failures, ce)
			cfg.Logf("%v", ce)
			log.Warn("cell failed", "sweep", cfg.Name, "cell", r.key,
				"attempts", r.attempts, "err", r.err)
			continue
		}
		results[r.key] = r.value
		rep.Succeeded++
		if jnl != nil && infraErr == nil {
			raw, err := json.Marshal(r.value)
			if err == nil {
				err = jnl.Record(r.key, r.attempts, raw)
			}
			if err != nil {
				infraErr = fmt.Errorf("runner: writing checkpoint %s: %w", cfg.Checkpoint, err)
				cfg.Logf("%v — continuing without checkpointing", infraErr)
				log.Error("checkpoint write failed; continuing without checkpointing",
					"sweep", cfg.Name, "checkpoint", cfg.Checkpoint, "err", err)
			}
		}
	}
	sort.Slice(rep.Failures, func(i, j int) bool { return rep.Failures[i].Key < rep.Failures[j].Key })
	rep.Skipped = rep.Total - rep.Resumed - rep.Succeeded - rep.Failed
	log.Debug("sweep finished", "sweep", cfg.Name, "ok", rep.Succeeded,
		"resumed", rep.Resumed, "failed", rep.Failed, "skipped", rep.Skipped,
		"retries", rep.Retried, "elapsed", time.Since(start).Round(time.Millisecond))
	if ctx.Err() != nil {
		rep.Interrupted = true
		return results, rep, ctx.Err()
	}
	return results, rep, infraErr
}

// execute runs one cell to its final outcome: attempts until success, a
// permanent failure, retry exhaustion, or cancellation. The per-cell
// wall time (across all attempts and backoffs) of a cell that finished
// feeds the cell-latency histogram the /progress ETA is extrapolated
// from; a cell cancellation cut short is returned skipped and uncounted.
func execute[R any](ctx context.Context, cfg Config, t Task[R], st *progressState) cellResult[R] {
	start := time.Now()
	finish := func(r cellResult[R]) cellResult[R] {
		if r.err != nil && ctx.Err() != nil {
			r.skipped = true
			return r
		}
		r.dur = time.Since(start)
		hCellSeconds.Observe(r.dur.Seconds())
		st.sumCellNs.Add(r.dur.Nanoseconds())
		if r.err != nil {
			st.failed.Add(1)
			mCellsFailed.Inc()
		} else {
			st.done.Add(1)
			mCellsOK.Inc()
		}
		return r
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		mAttempts.Inc()
		v, err := runAttempt(ctx, cfg, t, attempt)
		if err == nil {
			return finish(cellResult[R]{key: t.Key, value: v, attempts: attempt + 1})
		}
		lastErr = err
		var pe *PanicError
		if errors.As(err, &pe) {
			mPanics.Inc()
		} else if errors.Is(err, context.DeadlineExceeded) {
			mTimeouts.Inc()
		}
		if ctx.Err() != nil || attempt >= cfg.Retries || cfg.Classify(err) != Transient {
			return finish(cellResult[R]{key: t.Key, attempts: attempt + 1, err: lastErr})
		}
		mRetries.Inc()
		st.retried.Add(1)
		d := backoffDelay(cfg, t.Key, attempt)
		cfg.Logf("cell %s attempt %d failed (%v); retrying in %v", t.Key, attempt+1, err, d)
		obs.Logger("runner").Debug("retrying cell", "sweep", cfg.Name, "cell", t.Key,
			"attempt", attempt+1, "backoff", d, "err", err)
		if !sleepCtx(ctx, d) {
			return finish(cellResult[R]{key: t.Key, attempts: attempt + 1, err: lastErr})
		}
	}
}

// runAttempt executes one attempt in its own goroutine so that a task
// that overruns its deadline (or ignores ctx entirely) cannot stall the
// worker: the worker abandons it at the deadline and moves on, and the
// stray goroutine finishes in the background into a buffered channel.
func runAttempt[R any](ctx context.Context, cfg Config, t Task[R], attempt int) (R, error) {
	var zero R
	if cfg.Inject != nil {
		if err := cfg.Inject(t.Key, attempt); err != nil {
			return zero, err
		}
	}
	actx := ctx
	cancel := func() {}
	if cfg.TaskTimeout > 0 {
		actx, cancel = context.WithTimeout(ctx, cfg.TaskTimeout)
	}
	defer cancel()

	type outcome struct {
		v   R
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				ch <- outcome{err: &PanicError{Value: fmt.Sprint(p), Stack: string(debug.Stack())}}
			}
		}()
		v, err := t.Run(actx)
		ch <- outcome{v: v, err: err}
	}()
	select {
	case o := <-ch:
		return o.v, o.err
	case <-actx.Done():
		return zero, actx.Err()
	}
}

// backoffDelay is Backoff·2^attempt capped at MaxBackoff, scaled by a
// deterministic per-(key, attempt) jitter factor in [0.5, 1.5) —
// reproducible across runs, decorrelated across cells. The schedule
// lives in internal/backoff, shared with the distributed-sweep HTTP
// client so one seed reproduces both layers' retry timing.
func backoffDelay(cfg Config, key string, attempt int) time.Duration {
	p := backoff.Policy{Base: cfg.Backoff, Max: cfg.MaxBackoff, Seed: cfg.Seed}
	return p.Delay(key, attempt)
}

// sleepCtx sleeps for d or until ctx is cancelled; it reports whether
// the full sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
