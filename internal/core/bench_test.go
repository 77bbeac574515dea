package core

import (
	"fmt"
	"runtime"
	"testing"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/imaging"
	"tevot/internal/inject"
	"tevot/internal/workload"
)

// BenchmarkCharacterizeParallel measures the sharded DTA hot path:
// cycles simulated per second at Workers:1 (the sequential baseline)
// and at the machine's parallel width. Compare commits by running it
// on both side by side; perfbench's dta-imaging and table3 workloads
// carry the bounded end-to-end numbers.
func BenchmarkCharacterizeParallel(b *testing.B) {
	u, err := NewFUnit(circuits.IntAdd32)
	if err != nil {
		b.Fatal(err)
	}
	corner := cells.Corner{V: 0.85, T: 50}
	stream := workload.Random(false, 4096, 11)
	clocks := []float64{600}
	// Warm the STA cache so the benchmark sees only simulation cost.
	if _, err := u.Static(corner); err != nil {
		b.Fatal(err)
	}
	workers := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		workers = append(workers, p)
	}
	for _, w := range workers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			cycles := stream.Len() - 1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The random stream repeats no transition, so every shard
				// drops its memo after memoProbeCycles: this measures the
				// uncached kernel. BenchmarkCharacterizeMemo owns the
				// cached numbers.
				tr, err := CharacterizeOpts(u, corner, stream, clocks, CharacterizeOptions{Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				if tr.Cycles() != cycles {
					b.Fatalf("trace has %d cycles; want %d", tr.Cycles(), cycles)
				}
			}
			b.ReportMetric(float64(cycles)*float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
		})
	}
}

// BenchmarkCharacterizeMemo measures characterization throughput on a
// real imaging operand stream (Sobel over 8 synthetic 32x32 images,
// INT_MUL native stream), where the shard keeps its transition memo,
// and reports the memo hit rate. Its cycles/s over the uncached
// kernel's tracks 1/(1-hitrate) because the hit path costs almost
// nothing next to an INT_MUL event cascade; BenchmarkCycle and
// BenchmarkCycleMemo in internal/sim price the two paths per cycle.
func BenchmarkCharacterizeMemo(b *testing.B) {
	rec := inject.NewRecording(20000)
	for _, img := range imaging.SyntheticSet(8, 32, 32) {
		inject.SobelApp.Run(img, rec)
	}
	stream, err := rec.Stream(circuits.IntMul32)
	if err != nil {
		b.Fatal(err)
	}
	stream.Name = "sobel_bench"
	u, err := NewFUnit(circuits.IntMul32)
	if err != nil {
		b.Fatal(err)
	}
	corner := cells.Corner{V: 0.85, T: 50}
	clocks := []float64{600}
	if _, err := u.Static(corner); err != nil {
		b.Fatal(err)
	}
	cycles := stream.Len() - 1
	var hits, misses int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := CharacterizeOpts(u, corner, stream, clocks, CharacterizeOptions{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		hits, misses = tr.MemoHits, tr.MemoMisses
	}
	b.ReportMetric(float64(cycles)*float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
	if hits+misses > 0 {
		b.ReportMetric(100*float64(hits)/float64(hits+misses), "hit%")
	}
}
