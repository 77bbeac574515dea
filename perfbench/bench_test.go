package main

import (
	"math"
	"testing"
)

// TestWorkloadsTiny runs every workload at smoke-test scale, untraced and
// traced, and checks that each reports every declared metric with no
// failed output check, and that the traced ledger sums to its total and
// lands within the (tiny-scale) tolerance of the untraced number.
func TestWorkloadsTiny(t *testing.T) {
	for name, w := range workloads {
		for _, trace := range []bool{false, true} {
			seconds := 0.3
			if name == "serve-small" || name == "serve-bulk" {
				seconds = 2 // enough light-phase requests for a median band
			}
			res, err := w.run(Params{Seed: 3, Seconds: seconds, Trace: trace, Tiny: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			if res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s trace=%v: %d attempted, %d failed", name, trace, res.Attempted, res.Failed)
			}
			if !trace {
				for m := range endToEnd {
					if v := res.Metrics[m].Value; !(v > 0) || math.IsInf(v, 0) {
						t.Errorf("%s: end-to-end metric %s = %v, want a positive finite value", name, m, v)
					}
				}
				continue
			}
			sum := 0.0
			for m := range perLayer {
				if len(m) > 6 && m[:6] == "share." {
					sum += res.Metrics[m].Value
				}
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("%s: ledger shares sum to %v, want 1", name, sum)
			}
			if res.Metrics["ledger.within_tolerance"].Value != 1 {
				t.Errorf("%s: ledger total %.3f ms vs untraced %.3f ms: outside tolerance", name,
					res.Metrics["ledger.total_ms"].Value, res.Metrics["ledger.untraced_ms"].Value)
			}
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.75, 3.25}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
}

func TestVariantStaysInRange(t *testing.T) {
	for _, seed := range []int64{-17, -1, 0, 1, 15, 16, 1 << 40} {
		if v := variant(seed); v < 0 || v >= variants {
			t.Errorf("variant(%d) = %d", seed, v)
		}
	}
}
