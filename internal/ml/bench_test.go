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

// BenchmarkForestFit fits the default forest on TEVoT-shaped rows, from
// float rows (Table II's RFC; Fit takes their 128 leading 0/1 columns as
// bits) and from the same rows packed (core.Train). Both grow the same
// trees.
func BenchmarkForestFit(b *testing.B) {
	X, y := benchData(5000, 1)
	rows := packRows(X, 128)
	cfg := DefaultForestConfig(Regression)
	for _, bc := range []struct {
		name string
		fit  func(*RandomForest) error
	}{
		{"float", func(f *RandomForest) error { return f.Fit(X, y) }},
		{"packed", func(f *RandomForest) error { return f.FitPacked(rows, 128, y) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.fit(NewRandomForest(cfg)); err != nil {
					b.Fatal(err)
				}
			}
		})
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
// compiled trees — the model-side hot path — over float rows (Table
// II's RFC, mlcompare) and over packed rows (core.Model, serving). The
// inline walks must be allocation-free; the goroutine fan-out above
// them may allocate on multicore machines.
func BenchmarkForestPredictBatch(b *testing.B) {
	X, y := benchData(5000, 2)
	f := NewRandomForest(DefaultForestConfig(Regression))
	if err := f.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	rows := make([]PackedRow, len(X))
	for i, x := range X {
		rows[i] = packRow(x, 128)
	}
	dst := make([]float64, len(X))
	if allocs := testing.AllocsPerRun(5, func() {
		f.compiled.predictRange(rowSet{float: X}, dst)
		f.compiled.predictRange(rowSet{packed: rows, nbits: 128}, dst)
	}); allocs != 0 {
		b.Fatalf("inline batched predict allocates %.1f/op; want 0", allocs)
	}
	for _, bc := range []struct {
		name string
		call func()
	}{
		{"float/alloc", func() { f.PredictBatch(X) }},
		{"float/into", func() { f.PredictBatchInto(dst, X) }},
		{"packed/into", func() { f.PredictPackedInto(dst, rows, 128) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.call()
			}
			b.ReportMetric(float64(len(X))*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
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
