package obs

import (
	"math"
	"net/http/httptest"
	"strings"
	"testing"
)

func promTestRegistry(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	r.Counter("core.cycles_simulated").Add(1234)
	r.Counter("runner.cells_ok").Add(6)
	r.Gauge("sweep.rows_per_sec").Set(421.5)
	h := r.Histogram("runner.cell_seconds", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	return r
}

func TestPromRoundTrip(t *testing.T) {
	r := promTestRegistry(t)
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()

	fams, err := ParseProm(strings.NewReader(text))
	if err != nil {
		t.Fatalf("writer output rejected by strict parser: %v\n%s", err, text)
	}
	if v, ok := PromCounterTotal(fams, "tevot_core_cycles_simulated_total"); !ok || v != 1234 {
		t.Fatalf("cycles counter = %v (ok=%v), want 1234", v, ok)
	}
	g, ok := fams["tevot_sweep_rows_per_sec"]
	if !ok || g.Type != "gauge" || len(g.Samples) != 1 || g.Samples[0].Value != 421.5 {
		t.Fatalf("gauge family wrong: %+v", g)
	}
	hf, ok := fams["tevot_runner_cell_seconds"]
	if !ok || hf.Type != "histogram" {
		t.Fatalf("histogram family missing: %+v", hf)
	}
	// 3 bounds + +Inf bucket + _sum + _count = 6 samples.
	if len(hf.Samples) != 6 {
		t.Fatalf("histogram has %d samples, want 6:\n%s", len(hf.Samples), text)
	}
	var infN, count float64
	for _, s := range hf.Samples {
		if strings.HasSuffix(s.Name, "_bucket") && s.Labels["le"] == "+Inf" {
			infN = s.Value
		}
		if strings.HasSuffix(s.Name, "_count") {
			count = s.Value
		}
	}
	if infN != 5 || count != 5 {
		t.Fatalf("+Inf bucket %v / _count %v, want 5/5", infN, count)
	}
}

func TestPromHandler(t *testing.T) {
	r := promTestRegistry(t)
	srv := httptest.NewServer(PromHandler(r))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != PromContentType {
		t.Fatalf("Content-Type %q, want %q", got, PromContentType)
	}
	if _, err := ParseProm(resp.Body); err != nil {
		t.Fatalf("handler output rejected: %v", err)
	}
}

func TestPromExtraLabels(t *testing.T) {
	r := promTestRegistry(t)
	var b strings.Builder
	if err := WritePromSnapshot(&b, PromPrefix, r.Snapshot(), map[string]string{"worker": `w"1\x`}); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseProm(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("labeled output rejected: %v\n%s", err, b.String())
	}
	fam := fams["tevot_runner_cells_ok_total"]
	if fam == nil || len(fam.Samples) != 1 {
		t.Fatalf("labeled counter missing: %+v", fam)
	}
	if got := fam.Samples[0].Labels["worker"]; got != `w"1\x` {
		t.Fatalf("label round trip: %q", got)
	}
}

func TestPromNameSanitize(t *testing.T) {
	cases := map[string]string{
		"core.cycles_simulated": "tevot_core_cycles_simulated",
		"a-b.c d":               "tevot_a_b_c_d",
		"über":                  "tevot___ber", // each non-ASCII byte becomes _
	}
	for in, want := range cases {
		if got := promName(PromPrefix, in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
		if !validPromName(promName(PromPrefix, in)) {
			t.Errorf("promName(%q) not a valid metric name", in)
		}
	}
}

// TestPromCounterTotalSuffixOnce: a counter whose registry name already
// ends in "_total" is exported with one suffix, on /metrics and in the
// labeled multi-snapshot document /cluster/metrics serves, and a
// counter that would collide with it after the suffix is refused.
func TestPromCounterTotalSuffixOnce(t *testing.T) {
	r := NewRegistry()
	r.Counter("runner.cells_total").Add(27)
	r.Counter("runner.cells_ok").Add(21)
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseProm(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("output rejected: %v\n%s", err, b.String())
	}
	for name, want := range map[string]float64{"tevot_runner_cells_total": 27, "tevot_runner_cells_ok_total": 21} {
		if v, ok := PromCounterTotal(fams, name); !ok || v != want {
			t.Errorf("%s = %v (ok=%v), want %v\n%s", name, v, ok, want, b.String())
		}
	}
	if _, ok := fams["tevot_runner_cells_total_total"]; ok {
		t.Errorf("doubled suffix exported:\n%s", b.String())
	}

	snap := r.Snapshot()
	var merged RegistrySnapshot
	MergeSnapshots(&merged, snap)
	MergeSnapshots(&merged, snap)
	b.Reset()
	if err := WritePromSnapshots(&b, PromPrefix, []LabeledSnapshot{
		{Labels: map[string]string{"worker": "w1"}, Snap: snap},
		{Labels: map[string]string{"worker": "w2"}, Snap: snap},
		{Labels: map[string]string{"aggregate": "cluster"}, Snap: merged},
	}); err != nil {
		t.Fatal(err)
	}
	fams, err = ParseProm(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("cluster output rejected: %v\n%s", err, b.String())
	}
	if fam := fams["tevot_runner_cells_total"]; fam == nil || len(fam.Samples) != 3 {
		t.Errorf("cluster family tevot_runner_cells_total: %+v\n%s", fam, b.String())
	} else if v, _ := PromCounterTotal(fams, "tevot_runner_cells_total"); v != 4*27 {
		t.Errorf("cluster samples sum to %v, want %v (two workers plus their merge)", v, 4*27)
	}

	r.Counter("runner.cells").Add(1)
	if err := r.WriteProm(&b); err == nil {
		t.Error("counters runner.cells and runner.cells_total both exported as tevot_runner_cells_total")
	}
}

func TestPromFloatSpellings(t *testing.T) {
	cases := map[float64]string{
		math.Inf(1):  "+Inf",
		math.Inf(-1): "-Inf",
		0.001:        "0.001",
		600:          "600",
	}
	for v, want := range cases {
		if got := promFloat(v); got != want {
			t.Errorf("promFloat(%v) = %q, want %q", v, got, want)
		}
	}
	if promFloat(math.NaN()) != "NaN" {
		t.Error("NaN spelling wrong")
	}
}

func TestParsePromRejectsMalformed(t *testing.T) {
	bad := map[string]string{
		"sample before TYPE":   "x_total 1\n# TYPE x_total counter\n",
		"no TYPE at all":       "x_total 1\n",
		"duplicate series":     "# TYPE x counter\nx 1\nx 2\n",
		"second TYPE":          "# TYPE x counter\nx 1\n# TYPE x counter\n",
		"negative counter":     "# TYPE x counter\nx -1\n",
		"bad name":             "# TYPE 9x counter\n9x 1\n",
		"bad value":            "# TYPE x counter\nx one\n",
		"unterminated labels":  "# TYPE x counter\nx{a=\"b\" 1\n",
		"bad escape":           "# TYPE x counter\nx{a=\"\\t\"} 1\n",
		"unknown type":         "# TYPE x weird\nx 1\n",
		"histogram no +Inf":    "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"histogram decreasing": "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"histogram inf!=count": "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n",
		"histogram no sum":     "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_count 3\n",
		"float bucket count":   "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1.5\nh_sum 1\nh_count 1.5\n",
	}
	for name, text := range bad {
		if _, err := ParseProm(strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted:\n%s", name, text)
		}
	}
	// And a well-formed document with the optional extras must pass.
	good := "# a comment\n# HELP x help text here\n# TYPE x counter\nx{a=\"b\"} 1 1712345678\n\n"
	if _, err := ParseProm(strings.NewReader(good)); err != nil {
		t.Errorf("good document rejected: %v", err)
	}
}
