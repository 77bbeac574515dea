package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// squareTasks builds n deterministic cells: cell "cell-i" returns i*i.
func squareTasks(n int) []Task[int] {
	tasks := make([]Task[int], n)
	for i := 0; i < n; i++ {
		i := i
		tasks[i] = Task[int]{
			Key: fmt.Sprintf("cell-%03d", i),
			Run: func(ctx context.Context) (int, error) { return i * i, nil },
		}
	}
	return tasks
}

func wantSquares(t *testing.T, results map[string]int, n int) {
	t.Helper()
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("cell-%03d", i)
		if results[key] != i*i {
			t.Fatalf("%s = %d, want %d", key, results[key], i*i)
		}
	}
}

// TestInjectedTransientFaultsComplete: a sweep with seeded transient
// faults injected into a fraction of cells completes with zero lost
// cells via retries — ISSUE acceptance criterion (a).
func TestInjectedTransientFaultsComplete(t *testing.T) {
	const n = 60
	cfg := Config{
		Name:    "squares",
		Workers: 4,
		Retries: 2,
		Backoff: time.Millisecond,
		Seed:    7,
		Inject:  NewFaultInjector(7, 0.25),
	}
	results, rep, err := Run(context.Background(), cfg, squareTasks(n))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 || rep.Skipped != 0 {
		t.Fatalf("lost cells: %s", rep.Summary())
	}
	if rep.Succeeded != n {
		t.Fatalf("succeeded %d, want %d", rep.Succeeded, n)
	}
	if rep.Retried == 0 {
		t.Fatal("no retries recorded — injector did not fire")
	}
	wantSquares(t, results, n)
	if rep.Err() != nil {
		t.Fatalf("Report.Err() = %v on a clean sweep", rep.Err())
	}
}

// TestFaultInjectorDeterministic: the injected-fault set depends only on
// (seed, key, attempt), never on scheduling.
func TestFaultInjectorDeterministic(t *testing.T) {
	a := NewFaultInjector(42, 0.3)
	b := NewFaultInjector(42, 0.3)
	other := NewFaultInjector(43, 0.3)
	same, diff := 0, 0
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("k%d", i)
		for attempt := 0; attempt < 3; attempt++ {
			ea, eb := a(key, attempt), b(key, attempt)
			if (ea == nil) != (eb == nil) {
				t.Fatalf("injector not deterministic at (%s, %d)", key, attempt)
			}
			if (ea == nil) != (other(key, attempt) == nil) {
				diff++
			} else {
				same++
			}
		}
	}
	if diff == 0 {
		t.Fatal("different seeds injected identical fault sets")
	}
	// Injected faults must classify as transient.
	if err := a("k-probe", 0); err != nil && DefaultClassify(err) != Transient {
		t.Fatalf("injected fault classified as %v", DefaultClassify(err))
	}
	_ = same
}

// TestDeadlineDoesNotStallPool: a task exceeding its deadline is
// cancelled, recorded as failed, and the rest of the sweep completes —
// ISSUE acceptance criterion (b).
func TestDeadlineDoesNotStallPool(t *testing.T) {
	const n = 12
	tasks := make([]Task[int], n)
	for i := 0; i < n; i++ {
		i := i
		tasks[i] = Task[int]{
			Key: fmt.Sprintf("cell-%03d", i),
			Run: func(ctx context.Context) (int, error) {
				if i == 3 {
					// Cooperative slow task: blocks until cancelled.
					<-ctx.Done()
					return 0, ctx.Err()
				}
				if i == 7 {
					// Uncooperative slow task: ignores ctx entirely.
					time.Sleep(300 * time.Millisecond)
					return i, nil
				}
				return i * i, nil
			},
		}
	}
	start := time.Now()
	cfg := Config{Name: "deadline", Workers: 2, TaskTimeout: 30 * time.Millisecond, Retries: 0}
	results, rep, err := Run(context.Background(), cfg, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("pool stalled: sweep took %v", elapsed)
	}
	if rep.Failed != 2 {
		t.Fatalf("failed = %d, want 2:\n%s", rep.Failed, rep.Summary())
	}
	for _, f := range rep.Failures {
		if !errors.Is(f.Err, context.DeadlineExceeded) {
			t.Fatalf("failure %s is %v, want deadline exceeded", f.Key, f.Err)
		}
	}
	if rep.Succeeded != n-2 || len(results) != n-2 {
		t.Fatalf("succeeded = %d (results %d), want %d", rep.Succeeded, len(results), n-2)
	}
	if rep.Err() == nil {
		t.Fatal("Report.Err() = nil despite failures")
	}
}

// TestPanicIsolation: a panic deep inside one cell becomes a typed
// per-cell error; the process and the rest of the sweep survive.
func TestPanicIsolation(t *testing.T) {
	tasks := squareTasks(8)
	tasks[5].Run = func(ctx context.Context) (int, error) {
		var s []int
		return s[3], nil // index out of range
	}
	results, rep, err := Run(context.Background(), Config{Name: "panics", Workers: 3}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 1 || rep.Succeeded != 7 || len(results) != 7 {
		t.Fatalf("unexpected outcome:\n%s", rep.Summary())
	}
	var pe *PanicError
	if !errors.As(rep.Failures[0].Err, &pe) {
		t.Fatalf("failure is %T (%v), want *PanicError", rep.Failures[0].Err, rep.Failures[0].Err)
	}
	if !strings.Contains(pe.Value, "index out of range") || pe.Stack == "" {
		t.Fatalf("panic not captured: %q", pe.Value)
	}
	// Panics are deterministic: they must not be retried.
	if rep.Retried != 0 {
		t.Fatalf("panicking cell was retried %d times", rep.Retried)
	}
}

// TestPermanentErrorNotRetried: only transient failures consume retry
// budget.
func TestPermanentErrorNotRetried(t *testing.T) {
	var calls atomic.Int32
	tasks := []Task[int]{{
		Key: "perm",
		Run: func(ctx context.Context) (int, error) {
			calls.Add(1)
			return 0, errors.New("deterministic validation failure")
		},
	}}
	_, rep, err := Run(context.Background(), Config{Name: "perm", Retries: 5, Backoff: time.Millisecond}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("permanent failure attempted %d times, want 1", got)
	}
	if rep.Failed != 1 || rep.Retried != 0 {
		t.Fatalf("unexpected report:\n%s", rep.Summary())
	}
}

// TestRetryExhaustion: a cell that is transient forever fails after
// Retries+1 attempts and is recorded, not lost.
func TestRetryExhaustion(t *testing.T) {
	var calls atomic.Int32
	tasks := []Task[int]{{
		Key: "always-transient",
		Run: func(ctx context.Context) (int, error) {
			calls.Add(1)
			return 0, MarkTransient(errors.New("still down"))
		},
	}}
	_, rep, err := Run(context.Background(), Config{Name: "exhaust", Retries: 3, Backoff: time.Millisecond}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("attempts = %d, want 4", got)
	}
	if rep.Failed != 1 || rep.Failures[0].Attempts != 4 || rep.Retried != 3 {
		t.Fatalf("unexpected report:\n%s", rep.Summary())
	}
}

// TestCancellationSkipsRemaining: cancelling the sweep context stops
// dispatch promptly; unattempted cells are reported as skipped, and so
// is the in-flight cell that blocks on ctx until the cancellation cuts
// it short — nothing failed.
func TestCancellationSkipsRemaining(t *testing.T) {
	const n = 40
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int32
	tasks := make([]Task[int], n)
	for i := 0; i < n; i++ {
		i := i
		tasks[i] = Task[int]{
			Key: fmt.Sprintf("cell-%03d", i),
			Run: func(ctx context.Context) (int, error) {
				if started.Add(1) == 5 {
					cancel()
				}
				time.Sleep(2 * time.Millisecond)
				return i, nil
			},
		}
	}
	// The first cell is dispatched before any other, so it is in flight
	// when the fifth start cancels the sweep.
	tasks[0].Run = func(ctx context.Context) (int, error) {
		<-ctx.Done()
		return 0, ctx.Err()
	}
	before := mCellsFailed.Value()
	_, rep, err := Run(ctx, Config{Name: "cancel", Workers: 2}, tasks)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !rep.Interrupted {
		t.Fatal("report not marked interrupted")
	}
	if rep.Skipped == 0 {
		t.Fatalf("no cells skipped after cancellation:\n%s", rep.Summary())
	}
	if rep.Failed != 0 || len(rep.Failures) != 0 || mCellsFailed.Value() != before {
		t.Fatalf("cancellation counted as a failure:\n%s", rep.Summary())
	}
	if rep.Resumed+rep.Succeeded+rep.Failed+rep.Skipped != n {
		t.Fatalf("report does not add up:\n%s", rep.Summary())
	}
}

// TestDuplicateKeysRejected: duplicate cell keys are an infrastructure
// error, detected before any work runs.
func TestDuplicateKeysRejected(t *testing.T) {
	tasks := squareTasks(3)
	tasks[2].Key = tasks[0].Key
	if _, _, err := Run(context.Background(), Config{}, tasks); err == nil {
		t.Fatal("duplicate keys accepted")
	}
	tasks = squareTasks(2)
	tasks[1].Key = ""
	if _, _, err := Run(context.Background(), Config{}, tasks); err == nil {
		t.Fatal("empty key accepted")
	}
}

// TestBackoffDeterministicAndBounded: the jittered backoff schedule is a
// pure function of (seed, key, attempt) and respects MaxBackoff.
func TestBackoffDeterministicAndBounded(t *testing.T) {
	cfg := Config{Backoff: 10 * time.Millisecond, MaxBackoff: 80 * time.Millisecond, Seed: 3}.withDefaults()
	for attempt := 0; attempt < 8; attempt++ {
		a := backoffDelay(cfg, "k", attempt)
		b := backoffDelay(cfg, "k", attempt)
		if a != b {
			t.Fatalf("attempt %d: backoff not deterministic (%v vs %v)", attempt, a, b)
		}
		if a < cfg.Backoff/2 || a > cfg.MaxBackoff*3/2 {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, a, cfg.Backoff/2, cfg.MaxBackoff*3/2)
		}
	}
	if backoffDelay(cfg, "k1", 1) == backoffDelay(cfg, "k2", 1) {
		t.Log("note: two keys share a jitter bucket (possible, not fatal)")
	}
}
