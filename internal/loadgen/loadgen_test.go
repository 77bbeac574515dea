package loadgen

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/core"
	"tevot/internal/obs"
	"tevot/internal/serve"
	"tevot/internal/workload"
)

// The loadgen suite drives a real in-process serve.Server (two
// functional-unit shards, coalescing on) with open-loop traffic and
// then audits the server's books through /metrics: the accounting
// identity
//
//	requests == served + shed + timeouts + canceled + bad + internal
//
// must hold on the aggregate serve_* counters AND on each unit's
// serve_fu_<FU>_* set after the run quiesces — the acceptance check
// that no request is double-counted or lost across batch boundaries.

func trainFU(t *testing.T, fu circuits.FU, cycles int, seed int64) *core.Model {
	t.Helper()
	u, err := core.NewFUnit(fu)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.Characterize(u, cells.Corner{V: 0.88, T: 50}, workload.RandomInt(cycles, seed), nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Train(fu, []*core.Trace{tr}, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// scrapeCounters fetches /metrics and returns every counter's value
// keyed by exposition name, via the strict in-repo parser — the same
// surface a production scraper sees.
func scrapeCounters(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fams, err := obs.ParseProm(resp.Body)
	if err != nil {
		t.Fatalf("exposition did not parse: %v", err)
	}
	out := make(map[string]float64)
	for name, fam := range fams {
		if fam.Type != "counter" || len(fam.Samples) == 0 {
			continue
		}
		out[strings.TrimSuffix(name, "_total")] = fam.Samples[0].Value
	}
	return out
}

func TestOpenLoopRunAndAccountingIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two models; skipped in -short")
	}
	s, err := serve.New(serve.Config{
		Models: []serve.ModelEntry{
			{Model: trainFU(t, circuits.IntAdd32, 201, 7)},
			{Model: trainFU(t, circuits.IntMul32, 151, 11)},
		},
		Workers: 2, QueueDepth: 16, BatchSize: 8, RequestTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	before := scrapeCounters(t, ts.URL)

	// One ramp against each shard: the default route (INT_ADD) and the
	// per-FU route (INT_MUL). Short steps, deterministic seeds.
	for i, fu := range []string{"", "INT_MUL"} {
		rep, err := Run(context.Background(), Config{
			URL: ts.URL, FU: fu, Pairs: 3, Seed: int64(100 + i),
			MaxInflight: 32, Timeout: 2 * time.Second,
			Steps: []Step{
				{RPS: 200, Duration: 300 * time.Millisecond},
				{RPS: 500, Duration: 300 * time.Millisecond},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Steps) != 2 {
			t.Fatalf("fu=%q: %d steps reported, want 2", fu, len(rep.Steps))
		}
		for _, sr := range rep.Steps {
			if sr.OK == 0 {
				t.Errorf("fu=%q offered %v rps: no OK completions (%+v)", fu, sr.OfferedRPS, sr)
			}
			// Every fired request must land in exactly one class.
			if classes := sr.OK + sr.Shed + sr.Unavailable + sr.BadRequest + sr.OtherHTTP + sr.NetErr; classes != sr.Sent {
				t.Errorf("fu=%q offered %v rps: sent %d != classified %d", fu, sr.OfferedRPS, sr.Sent, classes)
			}
			if sr.OK > 0 && (sr.P99Ms <= 0 || sr.P99Ms < sr.P50Ms) {
				t.Errorf("fu=%q: malformed quantiles p50=%v p99=%v", fu, sr.P50Ms, sr.P99Ms)
			}
		}
	}
	// Some malformed traffic so the bad_requests leg of the identity is
	// exercised too.
	for i := 0; i < 5; i++ {
		resp, err := http.Post(ts.URL+"/v1/predict/INT_MUL", "application/json", strings.NewReader(`{"voltage":0}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	after := scrapeCounters(t, ts.URL)
	delta := func(name string) float64 { return after[name] - before[name] }
	for _, prefix := range []string{"tevot_serve", "tevot_serve_fu_INT_ADD", "tevot_serve_fu_INT_MUL"} {
		req := delta(prefix + "_requests")
		sum := delta(prefix+"_served") + delta(prefix+"_shed") + delta(prefix+"_timeouts") +
			delta(prefix+"_canceled") + delta(prefix+"_bad_requests") + delta(prefix+"_internal_errors")
		if req == 0 {
			t.Errorf("%s saw no traffic; identity check is vacuous", prefix)
		}
		if req != sum {
			t.Errorf("%s identity broken: requests=%v != outcome sum=%v (served=%v shed=%v timeouts=%v canceled=%v bad=%v internal=%v)",
				prefix, req, sum,
				delta(prefix+"_served"), delta(prefix+"_shed"), delta(prefix+"_timeouts"),
				delta(prefix+"_canceled"), delta(prefix+"_bad_requests"), delta(prefix+"_internal_errors"))
		}
	}
	if got := delta("tevot_serve_internal_errors"); got != 0 {
		t.Errorf("internal errors during load: %v", got)
	}
	if got := delta("tevot_serve_panics"); got != 0 {
		t.Errorf("panics during load: %v", got)
	}
	if got := delta("tevot_serve_fu_INT_MUL_bad_requests"); got < 5 {
		t.Errorf("bad_requests moved by %v, want ≥5", got)
	}
}

// TestLatencyFromScheduledArrival offers a step far faster than the
// loop can fire, against a handler that answers at once: the generator
// falls behind its schedule, the step reports that lateness, and every
// request's latency includes it (coordinated omission would hide it).
func TestLatencyFromScheduledArrival(t *testing.T) {
	ok := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})
	rep, err := Run(context.Background(), Config{
		URL: "http://inproc", Seed: 3, MaxInflight: 4,
		Client: &http.Client{Transport: HandlerTransport{Handler: ok}},
		// One arrival per nanosecond: no loop keeps up, so by the end
		// of the step it fires tens of milliseconds late.
		Steps: []Step{{RPS: 1e9, Duration: 100 * time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sr := rep.Steps[0]
	if sr.OK == 0 || sr.OK != sr.Sent {
		t.Fatalf("sent %d, ok %d: want every fired request answered 200", sr.Sent, sr.OK)
	}
	if sr.LateP99Ms < 1 {
		t.Errorf("late_p99_ms = %v, want ≥ 1 ms for a step the loop cannot keep up with", sr.LateP99Ms)
	}
	// Every request's latency is its lateness plus its service time,
	// over the same set of requests, so each quantile dominates.
	if sr.P99Ms < sr.LateP99Ms || sr.MaxMs < sr.LateP99Ms {
		t.Errorf("p99 %v ms / max %v ms below late_p99 %v ms: latency must include lateness",
			sr.P99Ms, sr.MaxMs, sr.LateP99Ms)
	}
}

func TestMaxSustainedRPS(t *testing.T) {
	r := &Report{Steps: []StepReport{
		{OfferedRPS: 100, AchievedRPS: 99, OK: 99, P99Ms: 5},
		{OfferedRPS: 500, AchievedRPS: 480, OK: 480, Shed: 2, P99Ms: 20},
		{OfferedRPS: 1000, AchievedRPS: 700, OK: 700, Shed: 300, P99Ms: 90},
	}}
	if got := r.MaxSustainedRPS(50, 0.01); got != 480 {
		t.Errorf("sustained = %v, want 480 (third step breaks p99, second qualifies)", got)
	}
	if got := r.MaxSustainedRPS(10, 0.01); got != 99 {
		t.Errorf("sustained = %v, want 99 under a 10ms bound", got)
	}
	if got := r.MaxSustainedRPS(1, 0.01); got != 0 {
		t.Errorf("sustained = %v, want 0 when nothing qualifies", got)
	}
}

func TestQuantilesAndCSV(t *testing.T) {
	p50, p95, p99, max := quantiles([]float64{5, 1, 3, 2, 4})
	if p50 != 3 || max != 5 {
		t.Errorf("p50=%v max=%v, want 3/5", p50, max)
	}
	if p95 < p50 || p99 < p95 {
		t.Errorf("quantiles not monotone: %v %v %v", p50, p95, p99)
	}
	var sb strings.Builder
	r := &Report{Steps: []StepReport{{OfferedRPS: 100, AchievedRPS: 99.5, Sent: 50, OK: 49}}}
	if err := WriteCSV(&sb, r); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "offered_rps,") || !strings.HasSuffix(lines[0], ",late_p99_ms") {
		t.Fatalf("csv malformed:\n%s", sb.String())
	}
	if !strings.Contains(lines[1], "99.500") {
		t.Errorf("csv row missing achieved rps: %s", lines[1])
	}
}

// TestBuildBodyTakesFastPath: the body every arrival posts is in the
// serve decoder's canonical form, so the server parses it in one pass
// and counts no serve.decode_fallback.
func TestBuildBodyTakesFastPath(t *testing.T) {
	srv, err := serve.New(serve.Config{Model: trainFU(t, circuits.IntAdd32, 200, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	fallback := obs.NewCounter("serve.decode_fallback")
	for _, cfg := range []Config{
		{Pairs: 1025, Voltage: 0.85, Temperature: 45, Clocks: []float64{650, 700.5}, Seed: 3},
		{Pairs: 3, Voltage: 0.9, Temperature: -12.5, Seed: 4},
	} {
		body, err := buildBody(cfg)
		if err != nil {
			t.Fatal(err)
		}
		before := fallback.Value()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%d-pair body: status %d: %s", cfg.Pairs, rec.Code, rec.Body)
		}
		if n := fallback.Value() - before; n != 0 {
			t.Errorf("%d-pair body fell back to the reference decode %d times", cfg.Pairs, n)
		}
	}
}
