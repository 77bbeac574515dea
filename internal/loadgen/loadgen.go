// Package loadgen is an open-loop HTTP load generator for the tevot
// prediction service: Poisson arrivals at a target offered rate,
// stepped through a ramp schedule, with per-step latency quantiles and
// outcome classification. "Open loop" is the load-testing discipline
// that matters for saturation studies: arrivals fire on a schedule
// drawn from the offered rate, NOT in response to completions, so a
// slowing server faces the same offered load a real client population
// would present — the coordinated-omission trap a closed loop falls
// into. Each request's latency runs from its scheduled arrival, not
// from when the generator got round to firing it, so a generator that
// falls behind charges the delay to the requests it delayed, and each
// step reports how late it fired. The only concession is a bounded
// in-flight cap (file descriptors are finite); arrivals that would
// exceed it are counted as skipped, never silently dropped, so the
// report always states the load that was actually offered.
package loadgen

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tevot/internal/workload"
)

// Step is one rung of the ramp schedule: hold the offered rate for the
// duration.
type Step struct {
	RPS      float64       `json:"rps"`
	Duration time.Duration `json:"-"`
}

// Config parameterizes one load run.
type Config struct {
	// URL is the server base, e.g. "http://127.0.0.1:8080".
	URL string
	// FU, when set, targets /v1/predict/{FU}; empty uses the legacy
	// /v1/predict route (the default unit).
	FU string
	// Pairs is the operand-pair count per request (default 3, i.e. two
	// predicted cycles — the small-request regime coalescing targets).
	Pairs int
	// Clocks are the clock periods (ps) each request asks verdicts for.
	Clocks []float64
	// Voltage and Temperature are the operating corner every request
	// carries (defaults 0.88 V, 50 °C).
	Voltage     float64
	Temperature float64
	// Seed drives the Poisson arrival process and the operand stream;
	// same seed, same offered schedule.
	Seed int64
	// MaxInflight bounds concurrent outstanding requests (default 256).
	// Arrivals beyond it are counted as skipped.
	MaxInflight int
	// Timeout is the per-request client timeout (default 10s).
	Timeout time.Duration
	// Settle excludes requests scheduled during the first Settle of
	// each step from the latency and lateness quantiles (outcome counts
	// still include them). Step transitions pay one-off costs —
	// connection dial bursts, a GC triggered by the rate change — that
	// would otherwise pollute the steady-state tail. Default 0: measure
	// everything.
	Settle time.Duration
	// Steps is the ramp schedule. Required.
	Steps []Step
	// Client overrides the HTTP client (tests); nil builds one with
	// keep-alive sized to MaxInflight.
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.Pairs < 2 {
		c.Pairs = 3
	}
	if c.Voltage == 0 {
		c.Voltage = 0.88
	}
	if c.Temperature == 0 {
		c.Temperature = 50
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 256
	}
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	return c
}

// StepReport is the measured outcome of one ramp step.
type StepReport struct {
	OfferedRPS  float64 `json:"offered_rps"`
	DurationSec float64 `json:"duration_sec"`
	Sent        int64   `json:"sent"`
	Skipped     int64   `json:"skipped"` // arrivals dropped at the in-flight cap
	OK          int64   `json:"ok"`
	Shed        int64   `json:"shed_429"`
	Unavailable int64   `json:"unavailable_503"`
	BadRequest  int64   `json:"bad_4xx"`
	OtherHTTP   int64   `json:"other_http"`
	NetErr      int64   `json:"net_err"`
	AchievedRPS float64 `json:"achieved_rps"` // OK completions per second
	P50Ms       float64 `json:"p50_ms"`
	P95Ms       float64 `json:"p95_ms"`
	P99Ms       float64 `json:"p99_ms"`
	MaxMs       float64 `json:"max_ms"`
	// LateP99Ms is the p99 of fire time minus scheduled arrival: how
	// far the generator itself fell behind its schedule.
	LateP99Ms float64 `json:"late_p99_ms"`
}

// Report is the full saturation run: the schedule as offered and every
// step as measured.
type Report struct {
	URL         string       `json:"url"`
	Path        string       `json:"path"`
	Pairs       int          `json:"pairs"`
	Seed        int64        `json:"seed"`
	MaxInflight int          `json:"max_inflight"`
	Steps       []StepReport `json:"steps"`
	// SustainedRPS and P99BoundMs record the summary the CLI computed
	// via MaxSustainedRPS; zero when no bound was evaluated.
	SustainedRPS float64 `json:"sustained_rps,omitempty"`
	P99BoundMs   float64 `json:"p99_bound_ms,omitempty"`
}

// MaxSustainedRPS reports the highest achieved RPS among steps whose
// p99 stayed at or under p99BoundMs and whose non-OK completions
// (excluding skips) stayed under errRatio — the single saturation
// number an A/B comparison hinges on. Returns 0 if no step qualifies.
func (r *Report) MaxSustainedRPS(p99BoundMs, errRatio float64) float64 {
	best := 0.0
	for _, s := range r.Steps {
		done := s.OK + s.Shed + s.Unavailable + s.BadRequest + s.OtherHTTP + s.NetErr
		if done == 0 || s.OK == 0 {
			continue
		}
		bad := float64(done-s.OK) / float64(done)
		if s.P99Ms <= p99BoundMs && bad <= errRatio && s.AchievedRPS > best {
			best = s.AchievedRPS
		}
	}
	return best
}

// Run executes the ramp schedule against cfg.URL and returns the
// per-step report. ctx cancellation stops between arrivals; in-flight
// requests finish under their own timeout.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if cfg.URL == "" {
		return nil, fmt.Errorf("loadgen: no target URL")
	}
	if len(cfg.Steps) == 0 {
		return nil, fmt.Errorf("loadgen: empty ramp schedule")
	}
	path := "/v1/predict"
	if cfg.FU != "" {
		path += "/" + cfg.FU
	}
	body, err := buildBody(cfg)
	if err != nil {
		return nil, err
	}
	client := cfg.Client
	if client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConns = cfg.MaxInflight
		tr.MaxIdleConnsPerHost = cfg.MaxInflight
		client = &http.Client{Transport: tr, Timeout: cfg.Timeout}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	rep := &Report{URL: cfg.URL, Path: path, Pairs: cfg.Pairs,
		Seed: cfg.Seed, MaxInflight: cfg.MaxInflight}
	var inflight atomic.Int64
	for _, step := range cfg.Steps {
		if step.RPS <= 0 || step.Duration <= 0 {
			return nil, fmt.Errorf("loadgen: step needs positive rps and duration, got %v/%v", step.RPS, step.Duration)
		}
		sr := StepReport{OfferedRPS: step.RPS, DurationSec: step.Duration.Seconds()}
		var (
			mu        sync.Mutex
			lats      []float64 // ms, OK completions scheduled after the settle window
			lates     []float64 // ms, fired requests scheduled after the settle window
			wg        sync.WaitGroup
			stepStart = time.Now()
			stepEnd   = stepStart.Add(step.Duration)
			next      = stepStart
		)
		for {
			now := time.Now()
			if now.After(stepEnd) || ctx.Err() != nil {
				break
			}
			if wait := next.Sub(now); wait > 0 {
				select {
				case <-time.After(wait):
				case <-ctx.Done():
				}
			}
			// Schedule the next arrival BEFORE firing: the offered rate
			// must not depend on how long this request takes.
			sched := next
			next = next.Add(time.Duration(rng.ExpFloat64() / step.RPS * float64(time.Second)))
			if inflight.Load() >= int64(cfg.MaxInflight) {
				sr.Skipped++
				continue
			}
			inflight.Add(1)
			sr.Sent++
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer inflight.Add(-1)
				fired := time.Now()
				resp, err := client.Post(cfg.URL+path, "application/json", bytes.NewReader(body))
				lat := float64(time.Since(sched).Microseconds()) / 1000.0
				measured := sched.Sub(stepStart) >= cfg.Settle
				if measured {
					mu.Lock()
					lates = append(lates, float64(fired.Sub(sched).Microseconds())/1000.0)
					mu.Unlock()
				}
				if err != nil {
					atomic.AddInt64(&sr.NetErr, 1)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusOK:
					atomic.AddInt64(&sr.OK, 1)
					if measured {
						mu.Lock()
						lats = append(lats, lat)
						mu.Unlock()
					}
				case resp.StatusCode == http.StatusTooManyRequests:
					atomic.AddInt64(&sr.Shed, 1)
				case resp.StatusCode == http.StatusServiceUnavailable:
					atomic.AddInt64(&sr.Unavailable, 1)
				case resp.StatusCode >= 400 && resp.StatusCode < 500:
					atomic.AddInt64(&sr.BadRequest, 1)
				default:
					atomic.AddInt64(&sr.OtherHTTP, 1)
				}
			}()
		}
		wg.Wait()
		sr.AchievedRPS = float64(sr.OK) / step.Duration.Seconds()
		sr.P50Ms, sr.P95Ms, sr.P99Ms, sr.MaxMs = quantiles(lats)
		_, _, sr.LateP99Ms, _ = quantiles(lates)
		rep.Steps = append(rep.Steps, sr)
		if ctx.Err() != nil {
			break
		}
	}
	return rep, nil
}

// buildBody renders the fixed request body every arrival posts: a
// deterministic operand stream at the configured corner.
func buildBody(cfg Config) ([]byte, error) {
	pairs := workload.RandomInt(cfg.Pairs, cfg.Seed).Pairs
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"voltage":%g,"temperature":%g`, cfg.Voltage, cfg.Temperature)
	if len(cfg.Clocks) > 0 {
		b.WriteString(`,"clocks":[`)
		for i, c := range cfg.Clocks {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%g", c)
		}
		b.WriteByte(']')
	}
	b.WriteString(`,"pairs":[`)
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"a":%d,"b":%d}`, p.A, p.B)
	}
	b.WriteString(`]}`)
	return b.Bytes(), nil
}

// quantiles computes p50/p95/p99/max over latency samples (ms).
func quantiles(ms []float64) (p50, p95, p99, max float64) {
	if len(ms) == 0 {
		return 0, 0, 0, 0
	}
	sort.Float64s(ms)
	at := func(q float64) float64 {
		i := int(q * float64(len(ms)-1))
		return ms[i]
	}
	return at(0.50), at(0.95), at(0.99), ms[len(ms)-1]
}

// WriteCSV renders the report as one CSV row per step (the gnuplot /
// spreadsheet surface of the saturation study).
func WriteCSV(w io.Writer, r *Report) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"offered_rps", "achieved_rps", "sent", "skipped", "ok",
		"shed_429", "unavailable_503", "bad_4xx", "other_http", "net_err",
		"p50_ms", "p95_ms", "p99_ms", "max_ms", "late_p99_ms",
	}); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }
	d := func(v int64) string { return strconv.FormatInt(v, 10) }
	for _, s := range r.Steps {
		if err := cw.Write([]string{
			f(s.OfferedRPS), f(s.AchievedRPS), d(s.Sent), d(s.Skipped), d(s.OK),
			d(s.Shed), d(s.Unavailable), d(s.BadRequest), d(s.OtherHTTP), d(s.NetErr),
			f(s.P50Ms), f(s.P95Ms), f(s.P99Ms), f(s.MaxMs), f(s.LateP99Ms),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
