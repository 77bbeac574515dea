package ml

import (
	"math/rand"
	"testing"
)

// benchData builds a TEVoT-shaped dataset: 128 binary features plus two
// low-cardinality continuous columns, delay-like labels.
func benchData(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x := make([]float64, 130)
		for j := 0; j < 128; j++ {
			x[j] = float64(rng.Intn(2))
		}
		x[128] = 0.81 + float64(rng.Intn(20))*0.01
		x[129] = float64(rng.Intn(5)) * 25
		X[i] = x
		// Label: magnitude-like function of the top operand bits, scaled
		// by a corner factor.
		v := 0.0
		for j := 24; j < 32; j++ {
			v += x[j] * float64(j)
		}
		y[i] = (100 + 20*v) * (2 - x[128])
	}
	return X, y
}

func BenchmarkForestFit(b *testing.B) {
	X, y := benchData(5000, 1)
	cfg := DefaultForestConfig(Regression)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := NewRandomForest(cfg)
		if err := f.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForestPredict(b *testing.B) {
	X, y := benchData(5000, 2)
	f := NewRandomForest(DefaultForestConfig(Regression))
	if err := f.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Predict(X[i%len(X)])
	}
}

// BenchmarkForestPredictBatch measures batched inference through the
// flat node arena — the model-side hot path. The rows/s metric is what
// scripts/benchdiff.sh tracks; the Into variant must stay at 0 allocs.
func BenchmarkForestPredictBatch(b *testing.B) {
	X, y := benchData(5000, 2)
	f := NewRandomForest(DefaultForestConfig(Regression))
	if err := f.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.PredictBatch(X)
		}
		b.ReportMetric(float64(len(X))*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	})
	b.Run("into", func(b *testing.B) {
		dst := make([]float64, len(X))
		// The inline (single-worker) walk must be allocation-free; the
		// goroutine fan-out above it may allocate on multicore machines.
		if allocs := testing.AllocsPerRun(5, func() {
			f.flat.predictRange(X, dst, 0, len(X))
		}); allocs != 0 {
			b.Fatalf("inline batched predict allocates %.1f/op; want 0", allocs)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.PredictBatchInto(dst, X)
		}
		b.ReportMetric(float64(len(X))*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	})
}

func BenchmarkKNNPredict(b *testing.B) {
	X, y := benchData(5000, 3)
	m := NewKNN(5, Regression)
	if err := m.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(X[i%len(X)])
	}
}

func BenchmarkRidgeFit(b *testing.B) {
	X, y := benchData(5000, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewRidge(1e-6)
		if err := m.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}
