package sim

import (
	"math/rand"
	"testing"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/sta"
)

// BenchmarkCycle measures per-cycle event-driven simulation cost for
// each functional unit — the denominator of the paper's 100x speedup
// claim — and its cost per processed event.
func BenchmarkCycle(b *testing.B) {
	for _, fu := range circuits.AllFUs {
		b.Run(fu.String(), func(b *testing.B) {
			nl, err := fu.Build()
			if err != nil {
				b.Fatal(err)
			}
			delays, err := sta.GateDelays(nl, cells.Corner{V: 0.85, T: 50}, sta.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			r, err := NewRunner(nl, delays)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			vecs := make([][]bool, 64)
			for i := range vecs {
				vecs[i] = circuits.EncodeOperands(rng.Uint32(), rng.Uint32())
			}
			// Warm the runner's scratch buffers over the whole vector set,
			// then assert the steady-state path allocates nothing.
			if _, err := r.Cycle(vecs[0], vecs[1]); err != nil {
				b.Fatal(err)
			}
			for pass := 0; pass < 2; pass++ {
				for _, v := range vecs {
					if _, err := r.Cycle(nil, v); err != nil {
						b.Fatal(err)
					}
				}
			}
			j := 0
			if allocs := testing.AllocsPerRun(len(vecs), func() {
				if _, err := r.Cycle(nil, vecs[j%len(vecs)]); err != nil {
					b.Fatal(err)
				}
				j++
			}); allocs != 0 {
				b.Fatalf("steady-state Cycle allocates %.1f/op; want 0", allocs)
			}
			b.ReportAllocs()
			events := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := r.Cycle(nil, vecs[i%len(vecs)])
				if err != nil {
					b.Fatal(err)
				}
				events += res.Events
			}
			b.ReportMetric(float64(events)/float64(b.N), "events/cycle")
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(events, 1)), "ns/event")
		})
	}
}

// BenchmarkCycleMemo measures the transition-memo hit path: the same
// vector ring as BenchmarkCycle with every transition already cached, so
// each Cycle is key packing + one LRU lookup + rehydration. This is the
// per-cycle ceiling a fully repeating workload reaches; BenchmarkCycle
// is the all-miss floor.
func BenchmarkCycleMemo(b *testing.B) {
	for _, fu := range circuits.AllFUs {
		b.Run(fu.String(), func(b *testing.B) {
			r, vecs := steadyMemoRunner(b, fu)
			before := r.MemoStats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Cycle(nil, vecs[i%len(vecs)]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			s := r.MemoStats()
			lookups := s.Hits + s.Misses - before.Hits - before.Misses
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
			b.ReportMetric(100*float64(s.Hits-before.Hits)/float64(lookups), "hit%")
		})
	}
}
