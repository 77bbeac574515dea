package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/core"
	"tevot/internal/workload"
)

// The coalescer suite: flush policy (idle / size / rows), riders
// queuing behind busy workers, generation consistency across
// hot-reloads, per-item deadlines inside a batch, derived Retry-After,
// the per-FU accounting identity, and the 0-alloc pin on the
// enqueue→flush→scatter hot path. All run under -race by check.sh.
//
// A batch leaves as soon as a worker is idle, so a test that needs
// riders to share a flush first occupies the worker(s) with a gated
// request: riders then pile up in the unit's queue until the gate
// opens.

func decodeResponse(t *testing.T, data []byte) predictResponse {
	t.Helper()
	var out predictResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("response not JSON: %v\n%s", err, data)
	}
	return out
}

// workerGate is an inferHook that holds every flush until release.
// entered receives once per item that reaches a held flush.
type workerGate struct {
	entered chan struct{}
	open    chan struct{}
	once    sync.Once
}

func newWorkerGate() *workerGate {
	// entered is buffered for every item a test pushes through the
	// gate, so the hook never blocks on a test that stopped counting.
	return &workerGate{entered: make(chan struct{}, 64), open: make(chan struct{})}
}

func (g *workerGate) hook(context.Context) error {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.open
	return nil
}

// wait blocks until an item has reached a held flush.
func (g *workerGate) wait(t *testing.T) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("no flush reached the worker")
	}
}

// release lets every held and future flush run. Idempotent; tests defer
// it so a failing test still lets Close stop the workers.
func (g *workerGate) release() { g.once.Do(func() { close(g.open) }) }

type postResult struct {
	status int
	body   []byte
}

// postAsync posts a predict request from its own goroutine; the result
// lands on the returned channel.
func postAsync(t *testing.T, url, body string) <-chan postResult {
	out := make(chan postResult, 1)
	go func() {
		resp, err := http.Post(url+"/v1/predict", "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			out <- postResult{}
			return
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Error(err)
		}
		out <- postResult{resp.StatusCode, data}
	}()
	return out
}

// servedBatch waits for a request's result, requires a 200 with a batch
// block, and returns the decoded response.
func servedBatch(t *testing.T, ch <-chan postResult) predictResponse {
	t.Helper()
	var r postResult
	select {
	case r = <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("request never answered")
	}
	if r.status != http.StatusOK {
		t.Fatalf("status %d: %s", r.status, r.body)
	}
	out := decodeResponse(t, r.body)
	if out.Batch == nil {
		t.Fatal("response carries no batch info")
	}
	return out
}

// TestFlushOnIdle: a lone request under a large BatchSize is taken by
// the idle worker at once — a 1-item batch with flush_reason "idle",
// no waiting for riders that never come.
func TestFlushOnIdle(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.BatchSize = 64 })
	out := servedBatch(t, postAsync(t, ts.URL, validBody(3)))
	if out.Batch.Reason != "idle" || out.Batch.Items != 1 || out.Batch.Rows != 2 {
		t.Errorf("batch = %+v, want a 1-item, 2-row idle flush", out.Batch)
	}
	if out.Batch.FlushedAt.Before(out.Batch.QueuedAt) {
		t.Errorf("flushed_at %v before queued_at %v", out.Batch.FlushedAt, out.Batch.QueuedAt)
	}
}

// TestRidersLeaveInNextFlush: requests arriving while every worker is
// busy wait in the queue and all leave together in the next flush, as
// soon as the worker frees.
func TestRidersLeaveInNextFlush(t *testing.T) {
	const riders = 5
	g := newWorkerGate()
	defer g.release()
	s, ts := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.BatchSize = 64
		c.inferHook = g.hook
	})
	holder := postAsync(t, ts.URL, validBody(3))
	g.wait(t)
	var chs []<-chan postResult
	for i := 0; i < riders; i++ {
		chs = append(chs, postAsync(t, ts.URL, validBody(4)))
	}
	waitFor(t, func() bool { return s.queued() == riders })
	g.release()
	if out := servedBatch(t, holder); out.Batch.Items != 1 {
		t.Errorf("holder batch = %+v, want 1 item", out.Batch)
	}
	var flushedAt time.Time
	for i, ch := range chs {
		out := servedBatch(t, ch)
		if out.Batch.Reason != "idle" || out.Batch.Items != riders || out.Batch.Rows != 3*riders {
			t.Errorf("rider batch = %+v, want all %d riders in one idle flush", out.Batch, riders)
		}
		if i == 0 {
			flushedAt = out.Batch.FlushedAt
		} else if !out.Batch.FlushedAt.Equal(flushedAt) {
			t.Errorf("riders flushed at %v and %v, want one flush", flushedAt, out.Batch.FlushedAt)
		}
	}
}

// TestFlushOnSize: with BatchSize=2 and the worker busy, two riders
// queue; the freed worker takes both and closes the batch on the size
// cap — both served from one 2-item batch with flush_reason "size".
func TestFlushOnSize(t *testing.T) {
	g := newWorkerGate()
	defer g.release()
	s, ts := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.BatchSize = 2
		c.inferHook = g.hook
	})
	holder := postAsync(t, ts.URL, validBody(3))
	g.wait(t)
	a, b := postAsync(t, ts.URL, validBody(4)), postAsync(t, ts.URL, validBody(4))
	waitFor(t, func() bool { return s.queued() == 2 })
	g.release()
	servedBatch(t, holder)
	for _, ch := range []<-chan postResult{a, b} {
		out := servedBatch(t, ch)
		if out.Batch.Reason != "size" {
			t.Errorf("flush_reason = %q, want size", out.Batch.Reason)
		}
		if out.Batch.Items != 2 || out.Batch.Rows != 6 {
			t.Errorf("batch items/rows = %d/%d, want 2/6", out.Batch.Items, out.Batch.Rows)
		}
		if out.Batch.FlushedAt.Before(out.Batch.QueuedAt) {
			t.Errorf("flushed_at %v before queued_at %v", out.Batch.FlushedAt, out.Batch.QueuedAt)
		}
		if len(out.Delays) != 3 {
			t.Errorf("got %d delays, want 3", len(out.Delays))
		}
	}
}

// TestFlushOnRows: a request bigger than MaxBatchRows closes its batch
// on the row cap as soon as a worker takes it, with room left under
// BatchSize — a huge request never shares a flush past the row bound.
func TestFlushOnRows(t *testing.T) {
	g := newWorkerGate()
	defer g.release()
	s, ts := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.BatchSize = 64
		c.MaxBatchRows = 8
		c.inferHook = g.hook
	})
	holder := postAsync(t, ts.URL, validBody(3))
	g.wait(t)
	big := postAsync(t, ts.URL, validBody(10)) // 9 rows ≥ 8
	waitFor(t, func() bool { return s.queued() == 1 })
	g.release()
	servedBatch(t, holder)
	out := servedBatch(t, big)
	if out.Batch.Reason != "rows" {
		t.Fatalf("batch = %+v, want flush_reason rows", out.Batch)
	}
	if out.Batch.Items != 1 || out.Batch.Rows != 9 {
		t.Errorf("batch items/rows = %d/%d, want 1/9", out.Batch.Items, out.Batch.Rows)
	}
}

// TestDrainFlushesPartialBatch: a request queued behind a busy worker
// when the drain begins is served as soon as the worker frees — no
// request waits while a worker is idle, so the drain needs no flush
// mode of its own.
func TestDrainFlushesPartialBatch(t *testing.T) {
	g := newWorkerGate()
	defer g.release()
	s, err := New(Config{
		Model: trainedModel(t), Addr: "127.0.0.1:0", Workers: 1, QueueDepth: 4,
		BatchSize: 64, DrainTimeout: 10 * time.Second, inferHook: g.hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- s.ListenAndServe(ctx) }()
	waitFor(t, func() bool { return s.Addr() != "" })
	url := "http://" + s.Addr()

	holder := postAsync(t, url, validBody(3))
	g.wait(t)
	parked := postAsync(t, url, validBody(3))
	waitFor(t, func() bool { return s.queued() == 1 })
	cancel() // SIGTERM in the CLI
	waitFor(t, s.draining.Load)
	g.release()
	servedBatch(t, holder)
	out := servedBatch(t, parked)
	if out.Batch.Reason != "idle" || out.Batch.Items != 1 {
		t.Errorf("parked request batch = %+v, want a 1-item idle flush", out.Batch)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("drain returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ListenAndServe did not return after drain")
	}
}

// TestCloseAnswersQueuedItems is the hard stop: requests still queued
// when Close begins are refused with 429 draining, not flushed, while
// the request the worker already holds finishes normally, and Close
// returns once the worker is done with it.
func TestCloseAnswersQueuedItems(t *testing.T) {
	const queued = 3
	g := newWorkerGate()
	defer g.release()
	s, ts := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.BatchSize = 64
		c.inferHook = g.hook
	})
	shedBefore := mShed.Value()
	holder := postAsync(t, ts.URL, validBody(3))
	g.wait(t)
	var chs []<-chan postResult
	for i := 0; i < queued; i++ {
		chs = append(chs, postAsync(t, ts.URL, validBody(3)))
	}
	waitFor(t, func() bool { return s.queued() == queued })
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	waitFor(t, s.stopped)
	g.release()
	servedBatch(t, holder)
	for _, ch := range chs {
		var r postResult
		select {
		case r = <-ch:
		case <-time.After(5 * time.Second):
			t.Fatal("queued request never answered")
		}
		if r.status != http.StatusTooManyRequests {
			t.Fatalf("queued request: status %d, want 429: %s", r.status, r.body)
		}
		if e := decodeError(t, r.body); e.Error.Code != "draining" {
			t.Errorf("code %q, want draining", e.Error.Code)
		}
	}
	if got := mShed.Value() - shedBefore; got != queued {
		t.Errorf("shed moved by %d, want %d", got, queued)
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
}

// TestReloadMidBatchGeneration is the torn-batch race: a hot-reload
// lands while riders are still queuing behind a busy worker. The
// flush loads the model state exactly once, so every item in the batch
// — including the one admitted BEFORE the reload — must serve from one
// coherent model and report the same (new) generation.
func TestReloadMidBatchGeneration(t *testing.T) {
	dir := t.TempDir()
	m2, err := trainModel(41)
	if err != nil {
		t.Fatal(err)
	}
	path := writeModelFile(t, dir, "v2.tevot", m2)
	g := newWorkerGate()
	defer g.release()
	s, ts := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.BatchSize = 2
		c.inferHook = g.hook
	})
	holder := postAsync(t, ts.URL, validBody(3)) // flushes on generation 1
	g.wait(t)
	first := postAsync(t, ts.URL, validBody(3)) // parks in the queue
	waitFor(t, func() bool { return s.queued() == 1 })
	if _, err := s.Reload(path); err != nil {
		t.Fatal(err)
	}
	second := postAsync(t, ts.URL, validBody(3)) // completes the batch
	waitFor(t, func() bool { return s.queued() == 2 })
	g.release()
	if out := servedBatch(t, holder); out.ModelGeneration != 1 {
		t.Errorf("holder generation = %d, want 1 (flushed before the reload)", out.ModelGeneration)
	}
	for _, ch := range []<-chan postResult{first, second} {
		out := servedBatch(t, ch)
		if out.ModelGeneration != 2 {
			t.Errorf("generation = %d, want 2 (flush must load the post-reload state once)", out.ModelGeneration)
		}
		if out.Batch.Items != 2 {
			t.Errorf("batch = %+v, want 2 items in one flush", out.Batch)
		}
	}
}

// TestBatchQueuedDeadline: an item whose context expires while queued
// is answered with its context error before inference and removed from
// the batch — the surviving rider flushes in a batch of one, and
// serve.batch_expired moves by exactly one.
func TestBatchQueuedDeadline(t *testing.T) {
	g := newWorkerGate()
	defer g.release()
	s, err := New(Config{
		Model: trainedModel(t), Workers: 1, QueueDepth: 8,
		BatchSize: 2, inferHook: g.hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	u := s.units[0]
	expiredBefore := mBatchExpired.Value()

	pairs := workload.RandomInt(4, 3).Pairs
	item := func(ctx context.Context) *batchItem {
		return &batchItem{ctx: ctx, corner: cells.Corner{V: 0.88, T: 50},
			pairs: pairs, rows: len(pairs) - 1, done: make(chan struct{}, 1)}
	}
	expiredCtx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	holder, dead, live := item(context.Background()), item(expiredCtx), item(context.Background())

	if !u.admit(holder) {
		t.Fatal("admission refused with an empty queue")
	}
	g.wait(t)
	if !u.admit(dead) || !u.admit(live) {
		t.Fatal("admission refused with an empty queue")
	}
	g.release()
	for _, it := range []*batchItem{holder, dead, live} {
		select {
		case <-it.done:
		case <-time.After(5 * time.Second):
			t.Fatal("item never answered")
		}
	}
	if dead.err != context.DeadlineExceeded {
		t.Errorf("expired item err = %v, want DeadlineExceeded", dead.err)
	}
	if live.err != nil {
		t.Fatalf("live item failed: %v", live.err)
	}
	if live.reason != flushSizeReason || live.batchItems != 1 {
		t.Errorf("live item flushed on %q in a %d-item batch, want size and 1 (expired rider removed)",
			live.reason, live.batchItems)
	}
	if len(live.delays) != live.rows {
		t.Errorf("live item got %d delays, want %d", len(live.delays), live.rows)
	}
	if got := mBatchExpired.Value() - expiredBefore; got != 1 {
		t.Errorf("batch_expired moved by %d, want 1", got)
	}
	waitFor(t, func() bool { return s.queued() == 0 })
}

// TestRetryAfterDerived pins the Retry-After derivation to the measured
// flush duration — (backlog/batch + 1) flushes, in whole seconds,
// clamped to [1, 60] — and checks a real shed response carries it.
func TestRetryAfterDerived(t *testing.T) {
	cases := []struct {
		flush  time.Duration
		queued int64
		batch  int
		want   int
	}{
		{2 * time.Millisecond, 0, 32, 1},    // sub-second clamps up to 1
		{2 * time.Second, 0, 32, 2},         // one flush
		{2 * time.Second, 64, 32, 6},        // 2 backlog flushes + 1
		{3 * time.Second, 1, 1, 6},          // batch=1: one flush per item
		{1500 * time.Millisecond, 0, 32, 2}, // rounds up to whole seconds
		{30 * time.Second, 100, 1, 60},      // clamps at 60
		{time.Second, -5, 0, 1},             // degenerate inputs stay sane
		{0, 10, 1, 1},                       // no flush measured yet
	}
	for _, tc := range cases {
		if got := retryAfterSecs(tc.flush, tc.queued, tc.batch); got != tc.want {
			t.Errorf("retryAfterSecs(%v, %d, %d) = %d, want %d",
				tc.flush, tc.queued, tc.batch, got, tc.want)
		}
	}

	// End to end: one worker gated, one item queued, third request shed.
	// With a 3s last flush, batch=1 and backlog=1 the header must say 6,
	// not a constant.
	g := newWorkerGate()
	defer g.release()
	s, ts := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 1
		c.BatchSize = 1
		c.inferHook = g.hook
	})
	u := s.units[0]
	holder := postAsync(t, ts.URL, validBody(3)) // occupies the worker
	g.wait(t)
	queued := postAsync(t, ts.URL, validBody(3))
	waitFor(t, func() bool { return s.queued() == 1 })
	u.lastFlush.Store(int64(3 * time.Second)) // as if the previous flush took 3s
	resp, data := postPredict(t, ts.URL, validBody(3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("Retry-After"); got != "6" {
		t.Errorf("Retry-After = %q, want 6 (derived from a 3s flush, backlog 1)", got)
	}
	g.release()
	servedBatch(t, holder)
	servedBatch(t, queued)
	// The holder's completed flush stored its own measured duration.
	if d := time.Duration(u.lastFlush.Load()); d <= 0 || d == 3*time.Second {
		t.Errorf("last flush duration = %v after real flushes, want a measured positive value", d)
	}
}

// trainSecondFU trains a small INT_MUL model so multi-unit tests have a
// second functional unit to shard.
var (
	mulOnce  sync.Once
	mulModel *core.Model
	mulErr   error
)

func trainedMulModel(t *testing.T) *core.Model {
	t.Helper()
	mulOnce.Do(func() {
		u, err := core.NewFUnit(circuits.IntMul32)
		if err != nil {
			mulErr = err
			return
		}
		tr, err := core.Characterize(u, cells.Corner{V: 0.88, T: 50}, workload.RandomInt(201, 11), nil)
		if err != nil {
			mulErr = err
			return
		}
		mulModel, mulErr = core.Train(circuits.IntMul32, []*core.Trace{tr}, core.DefaultConfig())
	})
	if mulErr != nil {
		t.Fatal(mulErr)
	}
	return mulModel
}

// TestPerFURouting: a two-unit server routes /v1/predict/{fu} to the
// right shard, keeps the legacy /v1/predict on the default unit, and
// 404s unknown FUs with the aggregate-only accounting.
func TestPerFURouting(t *testing.T) {
	s, err := New(Config{
		Models: []ModelEntry{
			{Model: trainedModel(t)},
			{Model: trainedMulModel(t)},
		},
		Workers: 2, QueueDepth: 8, BatchSize: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := newHTTPServer(t, s)

	unknownBefore := mUnknownFU.Value()
	for _, tc := range []struct {
		path, wantFU string
	}{
		{"/v1/predict", "INT_ADD"},
		{"/v1/predict/INT_ADD", "INT_ADD"},
		{"/v1/predict/INT_MUL", "INT_MUL"},
		// FU names are canonically uppercase but model files are saved
		// lowercase (int_add.tevot), so the route accepts any casing.
		{"/v1/predict/int_add", "INT_ADD"},
		{"/v1/predict/int_mul", "INT_MUL"},
	} {
		resp, err := http.Post(ts+tc.path, "application/json", strings.NewReader(validBody(4)))
		if err != nil {
			t.Fatal(err)
		}
		data := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.path, resp.StatusCode, data)
		}
		if out := decodeResponse(t, data); out.FU != tc.wantFU {
			t.Errorf("%s served fu %q, want %q", tc.path, out.FU, tc.wantFU)
		}
	}
	resp, err := http.Post(ts+"/v1/predict/FP_DIV", "application/json", strings.NewReader(validBody(4)))
	if err != nil {
		t.Fatal(err)
	}
	data := readAll(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown FU: status %d, want 404: %s", resp.StatusCode, data)
	}
	if e := decodeError(t, data); e.Error.Code != "unknown_fu" {
		t.Errorf("code %q, want unknown_fu", e.Error.Code)
	}
	if got := mUnknownFU.Value() - unknownBefore; got != 1 {
		t.Errorf("unknown_fu moved by %d, want 1", got)
	}
	if gen := s.GenerationFU("INT_MUL"); gen != 1 {
		t.Errorf("INT_MUL generation = %d, want 1", gen)
	}
}

// TestPerFUReload: reloading one unit bumps only that unit's
// generation; the sibling keeps serving its model untouched.
func TestPerFUReload(t *testing.T) {
	dir := t.TempDir()
	m2, err := trainModel(53)
	if err != nil {
		t.Fatal(err)
	}
	path := writeModelFile(t, dir, "add-v2.tevot", m2)
	s, err := New(Config{
		Models: []ModelEntry{
			{Model: trainedModel(t)},
			{Model: trainedMulModel(t)},
		},
		Workers: 2, QueueDepth: 8, BatchSize: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := newHTTPServer(t, s)

	resp, err := http.Post(ts+"/admin/reload", "application/json",
		strings.NewReader(`{"fu":"INT_ADD","path":`+jq(path)+`}`))
	if err != nil {
		t.Fatal(err)
	}
	data := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d: %s", resp.StatusCode, data)
	}
	if got := s.GenerationFU("INT_ADD"); got != 2 {
		t.Errorf("INT_ADD generation = %d, want 2", got)
	}
	if got := s.GenerationFU("INT_MUL"); got != 1 {
		t.Errorf("INT_MUL generation = %d, want 1 (must not move)", got)
	}
	// A wrong-unit reload (INT_ADD gob into the INT_MUL shard) is
	// rejected by the FU gate and moves nothing.
	resp, err = http.Post(ts+"/admin/reload", "application/json",
		strings.NewReader(`{"fu":"INT_MUL","path":`+jq(path)+`}`))
	if err != nil {
		t.Fatal(err)
	}
	data = readAll(t, resp)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("cross-FU reload status %d, want 422: %s", resp.StatusCode, data)
	}
	if got := s.GenerationFU("INT_MUL"); got != 1 {
		t.Errorf("INT_MUL generation = %d after rejected reload, want 1", got)
	}
}

// TestAccountingIdentityPerFU drives mixed traffic — served, bad, shed,
// unknown-FU — at a two-unit server and asserts the accounting identity
//
//	requests == served + shed + timeouts + canceled + bad + internal
//
// on each unit's counter set AND the aggregate, as counter deltas.
func TestAccountingIdentityPerFU(t *testing.T) {
	s, err := New(Config{
		Models: []ModelEntry{
			{Model: trainedModel(t)},
			{Model: trainedMulModel(t)},
		},
		Workers: 4, QueueDepth: 8, BatchSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := newHTTPServer(t, s)

	snap := func(set outcomeSet) [7]int64 {
		return [7]int64{set.requests.Value(), set.served.Value(), set.shed.Value(),
			set.timeouts.Value(), set.canceled.Value(), set.bad.Value(), set.internal.Value()}
	}
	before := map[string][7]int64{
		"aggregate": snap(aggregate),
		"INT_ADD":   snap(s.byFU["INT_ADD"].met),
		"INT_MUL":   snap(s.byFU["INT_MUL"].met),
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			paths := []string{"/v1/predict", "/v1/predict/INT_MUL", "/v1/predict/INT_ADD", "/v1/predict/NOPE"}
			for i := 0; i < 25; i++ {
				body := validBody(3)
				if i%7 == 0 {
					body = `{"voltage":0}` // invalid: counted bad
				}
				resp, err := http.Post(ts+paths[(g+i)%len(paths)], "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				readAll(t, resp)
			}
		}(g)
	}
	wg.Wait()

	for name, b := range before {
		var a [7]int64
		switch name {
		case "aggregate":
			a = snap(aggregate)
		default:
			a = snap(s.byFU[name].met)
		}
		var d [7]int64
		for i := range a {
			d[i] = a[i] - b[i]
		}
		if sum := d[1] + d[2] + d[3] + d[4] + d[5] + d[6]; d[0] != sum {
			t.Errorf("%s identity broken: requests=%d != served=%d+shed=%d+timeouts=%d+canceled=%d+bad=%d+internal=%d",
				name, d[0], d[1], d[2], d[3], d[4], d[5], d[6])
		}
		if name != "aggregate" && d[0] == 0 {
			t.Errorf("%s saw no traffic; the identity check is vacuous", name)
		}
	}
}

// TestServeBatchHotPathAllocs pins the coalescer hot path —
// enqueue → take → flush → scatter — at zero allocations per item in
// steady state: one reused batch per worker, reusable worker buffers,
// and delay slices reused in place. Each run drives all three flush
// paths: a lone item taken by the idle worker, a full batch the freed
// worker closes on the size cap, and the riders queued behind it,
// which the worker takes as an idle batch next.
func TestServeBatchHotPathAllocs(t *testing.T) {
	const (
		size  = 8 // BatchSize
		extra = 3 // riders queued behind the full batch
		total = 1 + size + extra
	)
	// Buffered for every hook call of one run, so neither side blocks
	// on the other's bookkeeping.
	entered := make(chan struct{}, total)
	proceed := make(chan struct{}, total)
	s, err := New(Config{
		Model: trainedModel(t), Workers: 1, QueueDepth: 32, BatchSize: size,
		inferHook: func(context.Context) error {
			entered <- struct{}{}
			<-proceed
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	u := s.units[0]

	pairs := workload.RandomInt(4, 9).Pairs
	its := make([]*batchItem, total)
	for i := range its {
		its[i] = &batchItem{
			ctx:    context.Background(),
			corner: cells.Corner{V: 0.88, T: 50},
			pairs:  pairs,
			rows:   len(pairs) - 1,
			done:   make(chan struct{}, 1),
		}
	}
	run := func() {
		if !u.admit(its[0]) {
			t.Fatal("admission refused")
		}
		<-entered // the worker holds the lone item
		for _, it := range its[1:] {
			if !u.admit(it) {
				t.Fatal("admission refused")
			}
		}
		for range its {
			proceed <- struct{}{}
		}
		for range its[1:] {
			<-entered
		}
		for _, it := range its {
			<-it.done
			if it.err != nil {
				t.Fatal(it.err)
			}
		}
	}
	allocs := testing.AllocsPerRun(200, run)
	if perItem := allocs / total; perItem != 0 {
		t.Errorf("coalescer hot path allocates %.3f allocs/op per item (%.1f per %d-item run), want 0",
			perItem, allocs, total)
	}
	for i, it := range its {
		reason, items := flushIdleReason, 1
		switch {
		case i > size:
			items = extra
		case i > 0:
			reason, items = flushSizeReason, size
		}
		if it.reason != reason || it.batchItems != items {
			t.Errorf("item %d flushed on %q in a %d-item batch, want %q and %d", i, it.reason, it.batchItems, reason, items)
		}
	}
}

// newHTTPServer is newTestServer for Servers constructed directly (the
// multi-unit configs newTestServer's single-Model default can't build).
func newHTTPServer(t *testing.T, s *Server) string {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// readAll drains and closes a response body.
func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return data
}
