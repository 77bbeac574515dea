package obs

import (
	"fmt"
	"math"
)

// Fleet aggregation: the coordinator folds each worker's
// RegistrySnapshot (piggybacked on lease renewals and result uploads)
// into one cluster view. Counters and gauge-sums add; histograms merge
// bucket-wise, which is exact — cumulative bucket counts are sums of
// disjoint observation sets — and associative, so the merge order
// across workers cannot change the result (pinned by
// TestHistogramMergeAssociativity).

// MergeHistogramSnapshots merges two histogram snapshots bucket-wise.
// Both must share the same bucket bounds (same binary ⇒ same metric
// declarations); mismatched bounds are an error, not a guess.
func MergeHistogramSnapshots(a, b HistogramSnapshot) (HistogramSnapshot, error) {
	if len(a.Buckets) == 0 {
		return b, nil
	}
	if len(b.Buckets) == 0 {
		return a, nil
	}
	if len(a.Buckets) != len(b.Buckets) {
		return HistogramSnapshot{}, fmt.Errorf("obs: merging histograms with %d vs %d buckets", len(a.Buckets), len(b.Buckets))
	}
	out := HistogramSnapshot{
		Count:   a.Count + b.Count,
		Sum:     a.Sum + b.Sum,
		Max:     math.Max(a.Max, b.Max),
		Buckets: make([]BucketSnaphot, len(a.Buckets)),
	}
	for i := range a.Buckets {
		if a.Buckets[i].Le != b.Buckets[i].Le {
			return HistogramSnapshot{}, fmt.Errorf("obs: merging histograms with different bounds at bucket %d (%v vs %v)",
				i, float64(a.Buckets[i].Le), float64(b.Buckets[i].Le))
		}
		out.Buckets[i] = BucketSnaphot{Le: a.Buckets[i].Le, N: a.Buckets[i].N + b.Buckets[i].N}
	}
	out.summarize()
	return out, nil
}

// summarize derives Mean, P50, P95 and P99 from Count, Sum, Max and
// Buckets.
func (h *HistogramSnapshot) summarize() {
	if h.Count > 0 {
		h.Mean = h.Sum / float64(h.Count)
	}
	h.P50 = h.Quantile(0.50)
	h.P95 = h.Quantile(0.95)
	h.P99 = h.Quantile(0.99)
}

// Quantile estimates the q-quantile (q in [0,1]) from the snapshot's
// cumulative buckets by linear interpolation inside the bucket that
// holds it. Observations in the overflow bucket are attributed to Max.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	cum := 0.0
	prevCum := int64(0)
	for i, b := range h.Buckets {
		bn := float64(b.N - prevCum)
		prevCum = b.N
		if cum+bn >= rank && bn > 0 {
			lo := 0.0
			if i > 0 {
				lo = float64(h.Buckets[i-1].Le)
			}
			hi := h.Max
			if !math.IsInf(float64(b.Le), 1) {
				hi = float64(b.Le)
			}
			if hi < lo {
				hi = lo
			}
			frac := (rank - cum) / bn
			return lo + frac*(hi-lo)
		}
		cum += bn
	}
	return h.Max
}

// MergeSnapshots folds src into dst: counters and gauges sum,
// histograms merge bucket-wise. Histograms whose bounds disagree are
// skipped and reported (the caller logs them once); everything else
// still merges.
func MergeSnapshots(dst *RegistrySnapshot, src RegistrySnapshot) []error {
	var errs []error
	for name, v := range src.Counters {
		if dst.Counters == nil {
			dst.Counters = make(map[string]int64, len(src.Counters))
		}
		dst.Counters[name] += v
	}
	for name, v := range src.Gauges {
		if dst.Gauges == nil {
			dst.Gauges = make(map[string]float64, len(src.Gauges))
		}
		dst.Gauges[name] += v
	}
	for name, h := range src.Histograms {
		if dst.Histograms == nil {
			dst.Histograms = make(map[string]HistogramSnapshot, len(src.Histograms))
		}
		merged, err := MergeHistogramSnapshots(dst.Histograms[name], h)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", name, err))
			continue
		}
		dst.Histograms[name] = merged
	}
	return errs
}
