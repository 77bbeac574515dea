package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// workTime estimates the cost of an op that repeats identical,
// deterministic work, such as a dta-imaging pass or a table3 run: the
// p10 of its times.
// Host interference only adds to an op's time, and on a shared 2-vCPU
// host it came in bursts of seconds that slowed passes by up to 40%.
// Over six 25 s runs the median pass time spread 25% (IQR/median) and
// the p10 under 4%. Slower spells that last minutes move both alike.
func workTime(xs []float64) float64 { return quantile(xs, 0.1) }

// allocBytes reports the bytes the process has allocated so far.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// medianSetup runs set-up n times and returns the median wall time in
// seconds together with the last run's product.
func medianSetup[T any](n int, setup func() (T, error)) (T, float64, error) {
	var last T
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	printSamples("setup_s", times)
	return last, median(times), nil
}

// msSince is the elapsed time since t0 in milliseconds.
func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// printSamples prints a timing series' sample count and quantiles, so
// every reported timing carries the size of its sample. Failed ops
// (+Inf) are counted, not folded into the quantiles.
func printSamples(name string, xs []float64) {
	finite := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsInf(x, 0) {
			finite = append(finite, x)
		}
	}
	printJSONLine(map[string]any{"samples": name, "n": len(xs), "failed": len(xs) - len(finite),
		"p10": quantile(finite, 0.1), "p50": median(finite), "p75": quantile(finite, 0.75), "p90": quantile(finite, 0.9),
		"p99": quantile(finite, 0.99), "max": quantile(finite, 1)})
}
