package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// The metrics model is deliberately small: named counters, gauges, and
// fixed-bucket histograms in a process-wide registry, exported as
// Prometheus text on /metrics (prom.go) and snapshot-able as plain
// JSON for the run manifest. Pipeline stage latencies are histograms
// in this registry too (span.go).
//
// Hot-path contract: Inc, Add, Set, and Observe are single atomic
// operations (Observe adds one CAS loop for the running sum) and never
// allocate. TestMetricsHotPathAllocs pins this with
// testing.AllocsPerRun; the DTA cycle loop increments a counter per
// simulated cycle, so that cost sits inside the dta-imaging and table3
// op times that perfbench measures and BENCHMARK.json bounds.

// Counter is a monotonically increasing int64 metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1. It never allocates.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. It never allocates.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable float64 metric (e.g. rows/s of the last batch).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. It never allocates.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram: bucket i counts observations
// v <= Bounds[i] (and greater than Bounds[i-1]); one overflow bucket
// counts v > Bounds[len-1]. Observe is lock-free and allocation-free.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; last = overflow
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 running sum, CAS-updated
	maxBits atomic.Uint64 // float64 running max, CAS-updated
}

func newHistogram(bounds []float64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("obs: histogram needs at least one bucket bound")
	}
	for i, b := range bounds {
		if math.IsNaN(b) {
			return nil, fmt.Errorf("obs: histogram bound %d is NaN", i)
		}
		if i > 0 && b <= bounds[i-1] {
			return nil, fmt.Errorf("obs: histogram bounds not strictly increasing at %d (%v after %v)", i, b, bounds[i-1])
		}
	}
	return &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}, nil
}

// Observe records v. NaN observations are dropped (they would poison
// the running sum). It never allocates.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	// Linear scan: bucket counts are small (tens), and the scan touches
	// one contiguous slice — cheaper and branch-friendlier than a
	// binary search at these sizes.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) && old != 0 {
			break
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Max returns the largest observation (0 before any Observe).
func (h *Histogram) Max() float64 { return math.Float64frombits(h.maxBits.Load()) }

// Quantile estimates the q-quantile (q in [0,1]); see
// HistogramSnapshot.Quantile.
func (h *Histogram) Quantile(q float64) float64 { return h.snapshot().Quantile(q) }

// BucketCounts returns the per-bucket (non-cumulative) counts; the last
// entry is the overflow bucket.
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// DurationBuckets are the default bounds (seconds) for per-cell and
// per-stage latencies: 1 ms .. 10 min, roughly ×2.5 apart. Cells in a
// paper-scale sweep run seconds-to-minutes each.
var DurationBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 25, 50, 100, 250, 600,
}

// Registry is a named collection of metrics. The zero value is not
// usable; use NewRegistry or the package-level Default* functions.
type Registry struct {
	mu     sync.RWMutex
	order  []string // registration order, for stable snapshots
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// defaultRegistry is the process-wide registry behind /metrics and
// the run manifest.
var defaultRegistry = NewRegistry()

func (r *Registry) register(name string) {
	if _, c := r.counts[name]; c {
		panic(fmt.Sprintf("obs: metric %q already registered as a counter", name))
	}
	if _, g := r.gauges[name]; g {
		panic(fmt.Sprintf("obs: metric %q already registered as a gauge", name))
	}
	if _, h := r.hists[name]; h {
		panic(fmt.Sprintf("obs: metric %q already registered as a histogram", name))
	}
	r.order = append(r.order, name)
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counts[name]; ok {
		return c
	}
	r.register(name)
	c := &Counter{}
	r.counts[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.register(name)
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (later calls ignore bounds). Invalid
// bounds panic: metric declarations are package-level and a bad one is
// a programming error, not a runtime condition.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	r.register(name)
	h, err := newHistogram(bounds)
	if err != nil {
		panic(err.Error())
	}
	r.hists[name] = h
	return h
}

// HistogramSnapshot is the JSON form of one histogram.
type HistogramSnapshot struct {
	Count   int64           `json:"count"`
	Sum     float64         `json:"sum"`
	Mean    float64         `json:"mean"`
	Max     float64         `json:"max"`
	P50     float64         `json:"p50"`
	P95     float64         `json:"p95"`
	P99     float64         `json:"p99"`
	Buckets []BucketSnaphot `json:"buckets"`
}

// BucketSnaphot is one histogram bucket: the count of observations at
// or below Le (cumulative, Prometheus-style). The overflow bucket has
// Le = +Inf, rendered as the JSON string "+Inf".
type BucketSnaphot struct {
	Le JSONFloat `json:"le"`
	N  int64     `json:"n"`
}

// JSONFloat marshals like a float64 but renders non-finite values as
// strings, keeping snapshots valid JSON.
type JSONFloat float64

// MarshalJSON implements json.Marshaler.
func (f JSONFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsInf(v, 1) {
		return []byte(`"+Inf"`), nil
	}
	if math.IsInf(v, -1) {
		return []byte(`"-Inf"`), nil
	}
	if math.IsNaN(v) {
		return []byte(`"NaN"`), nil
	}
	return []byte(fmt.Sprintf("%g", v)), nil
}

// UnmarshalJSON implements json.Unmarshaler, accepting plain numbers
// and the string spellings MarshalJSON emits. Snapshots cross the wire
// in dist renew/result requests, so the round trip must close — the
// +Inf overflow-bucket bound in particular.
func (f *JSONFloat) UnmarshalJSON(b []byte) error {
	s := string(b)
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		switch s[1 : len(s)-1] {
		case "+Inf", "Inf":
			*f = JSONFloat(math.Inf(1))
			return nil
		case "-Inf":
			*f = JSONFloat(math.Inf(-1))
			return nil
		case "NaN":
			*f = JSONFloat(math.NaN())
			return nil
		}
		return fmt.Errorf("obs: invalid JSONFloat string %s", s)
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return err
	}
	*f = JSONFloat(v)
	return nil
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:   h.Count(),
		Sum:     h.Sum(),
		Max:     h.Max(),
		Buckets: make([]BucketSnaphot, len(h.buckets)),
	}
	cum := int64(0)
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		le := math.Inf(1)
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		s.Buckets[i] = BucketSnaphot{Le: JSONFloat(le), N: cum}
	}
	s.summarize()
	return s
}

// RegistrySnapshot is the JSON-able state of a registry at one instant.
type RegistrySnapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every metric's current value. The result is
// JSON-marshalable and feeds both /metrics and the run manifest.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := RegistrySnapshot{}
	for name, c := range r.counts {
		if s.Counters == nil {
			s.Counters = make(map[string]int64, len(r.counts))
		}
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		if s.Gauges == nil {
			s.Gauges = make(map[string]float64, len(r.gauges))
		}
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		if s.Histograms == nil {
			s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		}
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// Names returns the registered metric names in registration order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := append([]string(nil), r.order...)
	sort.Strings(out)
	return out
}

// NewCounter returns the named counter from the default registry.
func NewCounter(name string) *Counter {
	return defaultRegistry.Counter(name)
}

// NewGauge returns the named gauge from the default registry.
func NewGauge(name string) *Gauge {
	return defaultRegistry.Gauge(name)
}

// NewHistogram returns the named histogram from the default registry.
func NewHistogram(name string, bounds []float64) *Histogram {
	return defaultRegistry.Histogram(name, bounds)
}

// DefaultSnapshot captures the default registry.
func DefaultSnapshot() RegistrySnapshot { return defaultRegistry.Snapshot() }
