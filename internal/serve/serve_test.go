package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/core"
	"tevot/internal/workload"
)

// The suite runs the serving failure modes the package exists for:
// queue-full shedding, deadline expiry, panic isolation, hot-reload
// races, and graceful drain — all exercised under -race by check.sh.

var (
	modelOnce sync.Once
	testModel *core.Model
	modelErr  error
)

// trainedModel trains one small INT_ADD model per test binary. A few
// hundred characterized cycles train in well under a second.
func trainedModel(t *testing.T) *core.Model {
	t.Helper()
	modelOnce.Do(func() {
		testModel, modelErr = trainModel(7)
	})
	if modelErr != nil {
		t.Fatal(modelErr)
	}
	return testModel
}

func trainModel(seed int64) (*core.Model, error) {
	u, err := core.NewFUnit(circuits.IntAdd32)
	if err != nil {
		return nil, err
	}
	tr, err := core.Characterize(u, cells.Corner{V: 0.88, T: 50}, workload.RandomInt(401, seed), nil)
	if err != nil {
		return nil, err
	}
	return core.Train(circuits.IntAdd32, []*core.Trace{tr}, core.DefaultConfig())
}

// newTestServer builds a Server (mutate cfg via mod) and an httptest
// front end; both are torn down with the test.
func newTestServer(t *testing.T, mod func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{Model: trainedModel(t), Workers: 2, QueueDepth: 8, RequestTimeout: 2 * time.Second}
	if mod != nil {
		mod(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func postPredict(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func validBody(pairs int) string {
	var b strings.Builder
	b.WriteString(`{"voltage":0.88,"temperature":50,"clocks":[400,900],"pairs":[`)
	for i := 0; i < pairs; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"a":%d,"b":%d}`, uint32(i)*2654435761, uint32(i)*40503+99991)
	}
	b.WriteString(`]}`)
	return b.String()
}

func decodeError(t *testing.T, data []byte) apiError {
	t.Helper()
	var e apiError
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatalf("error body not structured JSON: %v\n%s", err, data)
	}
	return e
}

func TestPredictRoundTrip(t *testing.T) {
	s, ts := newTestServer(t, nil)
	resp, data := postPredict(t, ts.URL, validBody(10))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out predictResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.FU != "INT_ADD" || out.ModelGeneration != 1 {
		t.Errorf("fu/generation = %q/%d", out.FU, out.ModelGeneration)
	}
	if len(out.Delays) != 9 {
		t.Fatalf("got %d delays, want 9", len(out.Delays))
	}
	if len(out.Clocks) != 2 || len(out.Clocks[0].Errors) != 9 {
		t.Fatalf("clock results malformed: %+v", out.Clocks)
	}
	// The served predictions must match the library path bit-for-bit.
	m := trainedModel(t)
	var req predictRequest
	if err := json.Unmarshal([]byte(validBody(10)), &req); err != nil {
		t.Fatal(err)
	}
	corner := cells.Corner{V: 0.88, T: 50}
	for i := 0; i < 9; i++ {
		want := m.PredictDelay(corner, req.Pairs[i+1], req.Pairs[i])
		if out.Delays[i] != want {
			t.Errorf("delay[%d] = %v, want %v", i, out.Delays[i], want)
		}
		if got := out.Delays[i] > 400; got != out.Clocks[0].Errors[i] {
			t.Errorf("error verdict[%d] inconsistent with delay %v at clock 400", i, out.Delays[i])
		}
	}
	if s.Generation() != 1 {
		t.Errorf("generation = %d", s.Generation())
	}
}

func TestPredictRejectsBadInputs(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.MaxPairs = 8; c.MaxBodyBytes = 512 })
	cases := []struct {
		name, body string
		status     int
		code       string
	}{
		{"malformed", `{"voltage":`, http.StatusBadRequest, "malformed_json"},
		{"unknown field", `{"voltage":0.9,"temperature":25,"bogus":1,"pairs":[{"a":1,"b":2},{"a":3,"b":4}]}`, http.StatusBadRequest, "malformed_json"},
		{"one pair", `{"voltage":0.9,"temperature":25,"pairs":[{"a":1,"b":2}]}`, http.StatusBadRequest, "invalid_request"},
		{"batch too large", validBody(10), http.StatusBadRequest, "invalid_request"},
		{"zero voltage", `{"voltage":0,"temperature":25,"pairs":[{"a":1,"b":2},{"a":3,"b":4}]}`, http.StatusBadRequest, "invalid_request"},
		{"negative clock", `{"voltage":0.9,"temperature":25,"clocks":[-5],"pairs":[{"a":1,"b":2},{"a":3,"b":4}]}`, http.StatusBadRequest, "invalid_request"},
		{"body too large", validBody(60), http.StatusRequestEntityTooLarge, "body_too_large"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := postPredict(t, ts.URL, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, data)
			}
			if e := decodeError(t, data); e.Error.Code != tc.code {
				t.Errorf("code %q, want %q (%s)", e.Error.Code, tc.code, e.Error.Message)
			}
		})
	}
	resp, err := http.Get(ts.URL + "/v1/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status %d, want 405", resp.StatusCode)
	}
}

// TestQueueFullSheds429: with one busy worker and a one-deep queue, a
// third concurrent request must be shed immediately with 429 and
// Retry-After — admission control, not unbounded buffering.
func TestQueueFullSheds429(t *testing.T) {
	entered := make(chan struct{}, 4)
	gate := make(chan struct{})
	s, ts := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 1
		c.inferHook = func(ctx context.Context) error {
			entered <- struct{}{}
			<-gate
			return nil
		}
	})
	shedBefore := mShed.Value()

	type result struct {
		status int
		body   []byte
	}
	results := make(chan result, 2)
	post := func() {
		resp, data := postPredict(t, ts.URL, validBody(3))
		results <- result{resp.StatusCode, data}
	}
	go post() // occupies the worker
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never picked up the first request")
	}
	go post() // sits in the queue
	waitFor(t, func() bool { return s.queued() == 1 })

	// Queue full: this one must shed, now.
	resp, data := postPredict(t, ts.URL, validBody(3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if e := decodeError(t, data); e.Error.Code != "overloaded" {
		t.Errorf("code %q, want overloaded", e.Error.Code)
	}
	if got := mShed.Value() - shedBefore; got != 1 {
		t.Errorf("shed counter moved by %d, want 1", got)
	}

	close(gate)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Errorf("admitted request got %d: %s", r.status, r.body)
		}
	}
}

// TestRequestDeadline503: a handler slower than the per-request
// deadline answers 503 with the deadline error code.
func TestRequestDeadline503(t *testing.T) {
	timeoutsBefore := mTimeouts.Value()
	_, ts := newTestServer(t, func(c *Config) {
		c.RequestTimeout = 50 * time.Millisecond
		c.inferHook = func(ctx context.Context) error {
			<-ctx.Done() // the deadline propagates into inference
			return ctx.Err()
		}
	})
	start := time.Now()
	resp, data := postPredict(t, ts.URL, validBody(3))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, data)
	}
	if e := decodeError(t, data); e.Error.Code != "deadline_exceeded" {
		t.Errorf("code %q, want deadline_exceeded", e.Error.Code)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("deadline answer took %v", el)
	}
	if mTimeouts.Value() == timeoutsBefore {
		t.Error("timeout counter did not move")
	}
}

// TestPanicIsolation: a panic during inference fails that request with
// a 500 and the worker keeps serving the next one.
func TestPanicIsolation(t *testing.T) {
	var first atomic.Bool
	first.Store(true)
	panicsBefore := mPanics.Value()
	_, ts := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.inferHook = func(ctx context.Context) error {
			if first.CompareAndSwap(true, false) {
				panic("synthetic inference panic")
			}
			return nil
		}
	})
	resp, data := postPredict(t, ts.URL, validBody(3))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", resp.StatusCode, data)
	}
	if mPanics.Value() == panicsBefore {
		t.Error("panic counter did not move")
	}
	// Same (sole) worker, next request: must serve normally.
	resp, data = postPredict(t, ts.URL, validBody(3))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after panic got %d: %s", resp.StatusCode, data)
	}
}

// TestRecoverMiddleware: a panic in the handler goroutine itself (not
// the worker pool) becomes a 500, not a dead connection.
func TestRecoverMiddleware(t *testing.T) {
	h := Recover("serve", mPanics.Inc, http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("handler goroutine panic")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
}

// TestGracefulDrain: cancelling the serve context completes the
// in-flight request, flips readiness to draining, and returns nil.
func TestGracefulDrain(t *testing.T) {
	entered := make(chan struct{}, 1)
	m := trainedModel(t)
	s, err := New(Config{
		Model: m, Addr: "127.0.0.1:0", Workers: 1, QueueDepth: 4,
		DrainTimeout: 10 * time.Second,
		inferHook: func(ctx context.Context) error {
			entered <- struct{}{}
			time.Sleep(300 * time.Millisecond) // still in flight when drain starts
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.ListenAndServe(ctx) }()
	waitFor(t, func() bool { return s.Addr() != "" })
	url := "http://" + s.Addr()

	resp, err := http.Get(url + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz before drain: %d", resp.StatusCode)
	}

	inflight := make(chan int, 1)
	go func() {
		resp, err := http.Post(url+"/v1/predict", "application/json", strings.NewReader(validBody(3)))
		if err != nil {
			inflight <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		inflight <- resp.StatusCode
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never reached the worker")
	}
	cancel() // SIGTERM in the CLI

	if status := <-inflight; status != http.StatusOK {
		t.Fatalf("in-flight request during drain got %d, want 200", status)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("drain returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ListenAndServe did not return after drain")
	}
	// Post-drain the listener is gone but the readiness semantics
	// survive on the handler: it must answer draining/503.
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("/readyz after drain: %d, want 503", rec.Code)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// writeModelFile serializes m into dir and returns the path.
func writeModelFile(t *testing.T, dir, name string, m *core.Model) string {
	t.Helper()
	path := filepath.Join(dir, name)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}
