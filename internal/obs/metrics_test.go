package obs

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value = %d, want 42", got)
	}
	if r.Counter("c") != c {
		t.Fatal("second Counter(\"c\") returned a different instance")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g")
	if got := g.Value(); got != 0 {
		t.Fatalf("zero Value = %v, want 0", got)
	}
	g.Set(3.5)
	if got := g.Value(); got != 3.5 {
		t.Fatalf("Value = %v, want 3.5", got)
	}
	g.Set(-1)
	if got := g.Value(); got != -1 {
		t.Fatalf("Value = %v, want -1", got)
	}
}

// TestHistogramBuckets pins the bucket boundary semantics: bucket i
// counts v <= bounds[i], and a value exactly on a bound lands in that
// bound's bucket, not the next one.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1} { // both <= 1
		h.Observe(v)
	}
	h.Observe(1.5) // bucket (1,2]
	h.Observe(2)   // exactly on a bound: still (1,2]
	h.Observe(5)   // exactly the last bound
	h.Observe(6)   // overflow
	want := []int64{2, 2, 1, 1}
	got := h.BucketCounts()
	if len(got) != len(want) {
		t.Fatalf("BucketCounts len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, got[i], want[i])
		}
	}
	if h.Count() != 6 {
		t.Errorf("Count = %d, want 6", h.Count())
	}
	if h.Sum() != 0.5+1+1.5+2+5+6 {
		t.Errorf("Sum = %v, want 16", h.Sum())
	}
	if h.Max() != 6 {
		t.Errorf("Max = %v, want 6", h.Max())
	}
}

func TestHistogramDropsNaN(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1})
	h.Observe(math.NaN())
	if h.Count() != 0 {
		t.Fatalf("NaN was counted: Count = %d", h.Count())
	}
	h.Observe(0.5)
	if math.IsNaN(h.Sum()) {
		t.Fatal("NaN poisoned the running sum")
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{10, 20, 30})
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty Quantile = %v, want 0", got)
	}
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i % 30))
	}
	p50 := h.Quantile(0.50)
	if p50 < 10 || p50 > 20 {
		t.Errorf("p50 = %v, want within (10, 20]", p50)
	}
	if q := h.Quantile(1); q < h.Quantile(0.5) {
		t.Errorf("p100 %v < p50 %v", q, h.Quantile(0.5))
	}
	// Overflow observations interpolate toward the observed max — never
	// +Inf — and the top quantile reaches it exactly.
	h2 := r.Histogram("h2", []float64{1})
	h2.Observe(50)
	if got := h2.Quantile(1); got != 50 {
		t.Errorf("overflow p100 = %v, want 50", got)
	}
	if got := h2.Quantile(0.5); math.IsInf(got, 1) || got > 50 {
		t.Errorf("overflow p50 = %v, want finite <= 50", got)
	}
}

func TestHistogramRejectsBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {1, 1}, {2, 1}, {math.NaN()}} {
		if _, err := newHistogram(bounds); err == nil {
			t.Errorf("newHistogram(%v): no error", bounds)
		}
	}
}

func TestRegistryTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("registering x as a gauge after counter did not panic")
		}
	}()
	r.Gauge("x")
}

// TestMetricsHotPathAllocs enforces the hot-path contract: the
// primitives the cycle loop calls must not allocate.
func TestMetricsHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", DurationBuckets)
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { c.Add(3) }); n != 0 {
		t.Errorf("Counter.Add allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(1.5) }); n != 0 {
		t.Errorf("Gauge.Set allocates %v per op, want 0", n)
	}
	v := 0.0
	if n := testing.AllocsPerRun(1000, func() { h.Observe(v); v += 0.01 }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v per op, want 0", n)
	}
}

// TestMetricsConcurrent hammers the primitives from many goroutines;
// under `go test -race` this also proves the atomics are race-free.
func TestMetricsConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", []float64{1, 10, 100})
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i % 200))
				if i%100 == 0 {
					_ = r.Snapshot() // concurrent reader
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Errorf("Counter = %d, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("Histogram.Count = %d, want %d", got, workers*perWorker)
	}
	// The sum of workers identical sequences is exact in float64 here.
	var wantSum float64
	for i := 0; i < perWorker; i++ {
		wantSum += float64(i % 200)
	}
	if got := h.Sum(); got != wantSum*workers {
		t.Errorf("Histogram.Sum = %v, want %v", got, wantSum*workers)
	}
}

// TestSnapshotJSONRoundTrip marshals a registry snapshot — including
// the +Inf overflow bucket — and decodes it back, proving run.json and
// dist snapshot consumers get valid JSON with cumulative buckets.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("cells").Add(7)
	r.Gauge("rows_per_sec").Set(123.5)
	h := r.Histogram("lat", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(9) // overflow

	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Counters map[string]int64   `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
		Hists    map[string]struct {
			Count   int64 `json:"count"`
			Buckets []struct {
				Le json.RawMessage `json:"le"`
				N  int64           `json:"n"`
			} `json:"buckets"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, data)
	}
	if decoded.Counters["cells"] != 7 {
		t.Errorf("counters.cells = %d, want 7", decoded.Counters["cells"])
	}
	if decoded.Gauges["rows_per_sec"] != 123.5 {
		t.Errorf("gauges.rows_per_sec = %v, want 123.5", decoded.Gauges["rows_per_sec"])
	}
	lat := decoded.Hists["lat"]
	if lat.Count != 3 {
		t.Fatalf("histograms.lat.count = %d, want 3", lat.Count)
	}
	// Cumulative: 1, 2, 3; final bucket's le is the string "+Inf".
	wantN := []int64{1, 2, 3}
	if len(lat.Buckets) != 3 {
		t.Fatalf("lat has %d buckets, want 3", len(lat.Buckets))
	}
	for i, b := range lat.Buckets {
		if b.N != wantN[i] {
			t.Errorf("bucket %d cumulative n = %d, want %d", i, b.N, wantN[i])
		}
	}
	if got := string(lat.Buckets[2].Le); got != `"+Inf"` {
		t.Errorf("overflow le = %s, want \"+Inf\"", got)
	}
}

func TestJSONFloat(t *testing.T) {
	cases := map[JSONFloat]string{
		JSONFloat(1.5):          "1.5",
		JSONFloat(math.Inf(1)):  `"+Inf"`,
		JSONFloat(math.Inf(-1)): `"-Inf"`,
		JSONFloat(math.NaN()):   `"NaN"`,
		JSONFloat(0.001):        "0.001",
		JSONFloat(600):          "600",
	}
	for in, want := range cases {
		got, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("Marshal(%v) = %s, want %s", float64(in), got, want)
		}
	}
}

func TestRegistryNames(t *testing.T) {
	r := NewRegistry()
	r.Counter("b")
	r.Gauge("a")
	r.Histogram("c", []float64{1})
	names := r.Names()
	if len(names) != 3 || names[0] != "a" || names[1] != "b" || names[2] != "c" {
		t.Fatalf("Names = %v, want [a b c]", names)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench", DurationBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 0.001)
	}
}
