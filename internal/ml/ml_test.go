package ml

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// synthRegression builds y = 3*x0 - 2*x1 + noise-free step on x2.
func synthRegression(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x := []float64{rng.Float64(), rng.Float64(), float64(rng.Intn(2))}
		X[i] = x
		y[i] = 3*x[0] - 2*x[1]
		if x[2] == 1 {
			y[i] += 5
		}
	}
	return X, y
}

// synthXOR builds the classic interaction problem linear models cannot
// solve: class = x0 XOR x1.
func synthXOR(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		a, b := float64(rng.Intn(2)), float64(rng.Intn(2))
		X[i] = []float64{a, b, rng.Float64()} // third column is noise
		if a != b {
			y[i] = 1
		}
	}
	return X, y
}

func TestDecisionTreeRegressionFitsTrainingSet(t *testing.T) {
	X, y := synthRegression(500, 1)
	tr := NewDecisionTree(TreeConfig{Mode: Regression})
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	pred := make([]float64, len(X))
	for i := range X {
		pred[i] = tr.Predict(X[i])
	}
	mse, err := MSE(pred, y)
	if err != nil {
		t.Fatal(err)
	}
	if mse > 0.05 {
		t.Errorf("unpruned tree training MSE = %v, want near 0", mse)
	}
}

func TestDecisionTreeClassificationXOR(t *testing.T) {
	X, y := synthXOR(400, 2)
	tr := NewDecisionTree(TreeConfig{Mode: Classification})
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	Xt, yt := synthXOR(200, 3)
	pred := make([]float64, len(Xt))
	for i := range Xt {
		pred[i] = tr.Predict(Xt[i])
	}
	acc, err := Accuracy(pred, yt)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.99 {
		t.Errorf("tree XOR accuracy = %v, want ~1 (trees model interactions)", acc)
	}
}

func TestTreeMaxDepthRespected(t *testing.T) {
	X, y := synthRegression(500, 4)
	tr := NewDecisionTree(TreeConfig{Mode: Regression, MaxDepth: 3})
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if d := tr.Depth(); d > 3 {
		t.Errorf("depth = %d, want <= 3", d)
	}
}

func TestTreeMinLeafRespected(t *testing.T) {
	X, y := synthRegression(200, 5)
	tr := NewDecisionTree(TreeConfig{Mode: Regression, MinLeaf: 50})
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	// With MinLeaf=50 over 200 samples the tree can have at most 4 leaves.
	if n := tr.NumNodes(); n > 7 {
		t.Errorf("tree has %d nodes; MinLeaf=50 over 200 rows allows at most 7", n)
	}
}

func TestTreeRejectsBadLabels(t *testing.T) {
	tr := NewDecisionTree(TreeConfig{Mode: Classification})
	if err := tr.Fit([][]float64{{1}, {2}}, []float64{0, 1.5}); err == nil {
		t.Fatal("accepted fractional class label")
	}
	if err := tr.Fit([][]float64{{1}}, []float64{-1}); err == nil {
		t.Fatal("accepted negative class label")
	}
	if err := tr.Fit(nil, nil); err == nil {
		t.Fatal("accepted empty training set")
	}
	if err := tr.Fit([][]float64{{1}}, []float64{0, 1}); err == nil {
		t.Fatal("accepted mismatched lengths")
	}
}

func TestForestRegressionBeatsSingleTreeOOB(t *testing.T) {
	X, y := synthRegression(600, 6)
	// Add label noise so a single deep tree overfits.
	rng := rand.New(rand.NewSource(7))
	for i := range y {
		y[i] += rng.NormFloat64() * 0.5
	}
	Xt, yt := synthRegression(300, 8)

	tree := NewDecisionTree(TreeConfig{Mode: Regression})
	if err := tree.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	forest := NewRandomForest(DefaultForestConfig(Regression))
	if err := forest.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	var treeMSE, forestMSE float64
	for i := range Xt {
		d1 := tree.Predict(Xt[i]) - yt[i]
		d2 := forest.Predict(Xt[i]) - yt[i]
		treeMSE += d1 * d1
		forestMSE += d2 * d2
	}
	if forestMSE >= treeMSE {
		t.Errorf("forest test MSE (%v) should beat single tree (%v) under label noise",
			forestMSE/float64(len(Xt)), treeMSE/float64(len(Xt)))
	}
}

// TestForestDeterministicAcrossWorkerCounts fits the same forest at 1
// and 4 workers, from float rows and from packed rows, and requires
// identical predictions and saved bytes.
func TestForestDeterministicAcrossWorkerCounts(t *testing.T) {
	X, y := synthXOR(300, 9)
	Xt, _ := synthXOR(100, 10)
	Xb, yb := classData(300, 9)
	rows := packRows(Xb, 128)
	for _, fc := range []struct {
		name string
		fit  func(*RandomForest) error
		test [][]float64
	}{
		{"float", func(f *RandomForest) error { return f.Fit(X, y) }, Xt},
		{"packed", func(f *RandomForest) error { return f.FitPacked(rows, 128, yb) }, Xb},
	} {
		f1 := NewRandomForest(ForestConfig{Trees: 5, Tree: TreeConfig{Mode: Classification}, Bootstrap: true, Seed: 3, Workers: 1})
		f2 := NewRandomForest(ForestConfig{Trees: 5, Tree: TreeConfig{Mode: Classification}, Bootstrap: true, Seed: 3, Workers: 4})
		if err := fc.fit(f1); err != nil {
			t.Fatal(err)
		}
		if err := fc.fit(f2); err != nil {
			t.Fatal(err)
		}
		for i := range fc.test {
			if f1.Predict(fc.test[i]) != f2.Predict(fc.test[i]) {
				t.Fatalf("%s, row %d: forest prediction differs across worker counts", fc.name, i)
			}
		}
		var b1, b2 bytes.Buffer
		if err := f1.Save(&b1); err != nil {
			t.Fatal(err)
		}
		if err := f2.Save(&b2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatalf("%s: saved forests differ across worker counts (%d vs %d bytes)", fc.name, b1.Len(), b2.Len())
		}
	}
}

func TestForestPredictBatchMatchesPredict(t *testing.T) {
	X, y := synthRegression(300, 11)
	f := NewRandomForest(DefaultForestConfig(Regression))
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	batch := f.PredictBatch(X[:50])
	for i := 0; i < 50; i++ {
		if batch[i] != f.Predict(X[i]) {
			t.Fatalf("row %d: batch %v != single %v", i, batch[i], f.Predict(X[i]))
		}
	}
}

func TestKNNRegression(t *testing.T) {
	X, y := synthRegression(500, 12)
	m := NewKNN(5, Regression)
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	Xt, yt := synthRegression(100, 13)
	var mse float64
	for i := range Xt {
		d := m.Predict(Xt[i]) - yt[i]
		mse += d * d
	}
	mse /= float64(len(Xt))
	if mse > 1.0 {
		t.Errorf("kNN regression MSE = %v, want < 1", mse)
	}
}

func TestKNNClassificationXOR(t *testing.T) {
	X, y := synthXOR(400, 14)
	m := NewKNN(7, Classification)
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	Xt, yt := synthXOR(200, 15)
	pred := m.PredictBatch(Xt)
	acc, err := Accuracy(pred, yt)
	if err != nil {
		t.Fatal(err)
	}
	// Local neighborhoods solve XOR when the noise column doesn't
	// dominate; demand clearly-above-chance performance.
	if acc < 0.9 {
		t.Errorf("kNN XOR accuracy = %v, want >= 0.9", acc)
	}
}

func TestKNNExactNeighbor(t *testing.T) {
	X := [][]float64{{0, 0}, {1, 1}, {5, 5}}
	y := []float64{1, 2, 3}
	m := NewKNN(1, Regression)
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for i := range X {
		if got := m.Predict(X[i]); got != y[i] {
			t.Errorf("1-NN on training point %d = %v, want %v", i, got, y[i])
		}
	}
}

func TestRidgeRecoversLinearModel(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	n := 1000
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		X[i] = x
		y[i] = 2*x[0] - 3*x[1] + 0.5*x[2] + 7
	}
	m := NewRidge(1e-8)
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	w := m.Weights()
	want := []float64{2, -3, 0.5}
	for i := range want {
		if math.Abs(w[i]-want[i]) > 1e-6 {
			t.Errorf("w[%d] = %v, want %v", i, w[i], want[i])
		}
	}
	if math.Abs(m.Intercept()-7) > 1e-6 {
		t.Errorf("intercept = %v, want 7", m.Intercept())
	}
}

func TestRidgeCannotSolveXOR(t *testing.T) {
	X, y := synthXOR(600, 17)
	m := NewRidge(1e-6)
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	pred := make([]float64, len(X))
	for i := range X {
		if m.Predict(X[i]) >= 0.5 {
			pred[i] = 1
		}
	}
	acc, err := Accuracy(pred, y)
	if err != nil {
		t.Fatal(err)
	}
	if acc > 0.75 {
		t.Errorf("linear model on XOR = %v accuracy; should be near chance", acc)
	}
}

func TestScalerStandardizes(t *testing.T) {
	X := [][]float64{{1, 100, 5}, {3, 300, 5}, {5, 500, 5}}
	s, err := FitScaler(X)
	if err != nil {
		t.Fatal(err)
	}
	out := s.Transform(X)
	for j := 0; j < 2; j++ {
		var mean, sq float64
		for i := range out {
			mean += out[i][j]
		}
		mean /= 3
		for i := range out {
			d := out[i][j] - mean
			sq += d * d
		}
		std := math.Sqrt(sq / 3)
		if math.Abs(mean) > 1e-9 || math.Abs(std-1) > 1e-9 {
			t.Errorf("column %d: mean %v std %v after scaling", j, mean, std)
		}
	}
	// Constant column passes through.
	for i := range out {
		if out[i][2] != 5 {
			t.Errorf("constant column changed: %v", out[i][2])
		}
	}
}

func TestDatasetSplitAndShuffle(t *testing.T) {
	var d Dataset
	for i := 0; i < 100; i++ {
		d.Append([]float64{float64(i)}, float64(i))
	}
	d.Shuffle(1)
	train, test, err := d.Split(0.8)
	if err != nil {
		t.Fatal(err)
	}
	if train.Len() != 80 || test.Len() != 20 {
		t.Fatalf("split sizes %d/%d, want 80/20", train.Len(), test.Len())
	}
	seen := make(map[float64]bool)
	for _, v := range d.Y {
		seen[v] = true
	}
	if len(seen) != 100 {
		t.Fatal("shuffle lost samples")
	}
	if _, _, err := d.Split(0); err == nil {
		t.Fatal("Split(0) succeeded")
	}
	if _, _, err := d.Split(1); err == nil {
		t.Fatal("Split(1) succeeded")
	}
}

func TestMetrics(t *testing.T) {
	acc, err := Accuracy([]float64{1, 0, 1, 1}, []float64{1, 0, 0, 1})
	if err != nil || acc != 0.75 {
		t.Errorf("Accuracy = %v, %v; want 0.75", acc, err)
	}
	mse, err := MSE([]float64{1, 2}, []float64{3, 2})
	if err != nil || mse != 2 {
		t.Errorf("MSE = %v, %v; want 2", mse, err)
	}
	if _, err := Accuracy([]float64{1}, []float64{}); err == nil {
		t.Error("Accuracy accepted mismatched lengths")
	}
}

// TestForestPredictionWithinLabelHull: a regression forest's prediction
// is a mean of training labels, so it must stay inside their range.
func TestForestPredictionWithinLabelHull(t *testing.T) {
	X, y := synthRegression(300, 20)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range y {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	f := NewRandomForest(DefaultForestConfig(Regression))
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	prop := func(a, b, c float64) bool {
		p := f.Predict([]float64{math.Abs(a), math.Abs(b), math.Mod(math.Abs(c), 2)})
		return p >= lo-1e-9 && p <= hi+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestTreePredictionIdempotent: same input, same output (pure function).
func TestTreePredictionIdempotent(t *testing.T) {
	X, y := synthRegression(200, 21)
	tr := NewDecisionTree(TreeConfig{Mode: Regression})
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	f := func(a, b, c float64) bool {
		x := []float64{a, b, c}
		return tr.Predict(x) == tr.Predict(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
