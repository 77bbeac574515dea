package ml

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"os"
	"testing"
)

// forestDigest hashes a fitted forest's structure: per tree, every
// node's feature, threshold bits, children and value bits, then the
// importances. It hashes the trees, not the gob encoding, so a change to
// the serialized config does not move it while any change to a split,
// a leaf or an importance does.
func forestDigest(f *RandomForest) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, t := range f.trees {
		put(uint64(len(t.nodes)))
		for _, n := range t.nodes {
			put(uint64(int64(n.feature)))
			put(math.Float64bits(n.threshold))
			put(uint64(int64(n.left)))
			put(uint64(int64(n.right)))
			put(math.Float64bits(n.value))
		}
		put(uint64(len(t.importance)))
		for _, v := range t.importance {
			put(math.Float64bits(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// continuousData has four columns with more distinct values than the
// split-candidate cap, some with ties, so thresholds are strided
// quantile midpoints and rows sit exactly on bucket edges.
func continuousData(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x := []float64{
			rng.Float64(),
			float64(rng.Intn(50)) / 10,
			rng.NormFloat64(),
			float64(rng.Intn(12)),
		}
		X[i] = x
		y[i] = 2*x[0] + math.Sin(x[1]) - x[2]*x[3]/4 + 0.1*rng.NormFloat64()
	}
	return X, y
}

// classData labels benchData's rows with three delay classes.
func classData(n int, seed int64) ([][]float64, []float64) {
	X, y := benchData(n, seed)
	for i, v := range y {
		switch {
		case v < 1500:
			y[i] = 0
		case v < 3000:
			y[i] = 1
		default:
			y[i] = 2
		}
	}
	return X, y
}

// TestForestFitDigests pins fitted forests bit for bit: each digest was
// recorded from the linear-search split finder, and the binned one must
// reproduce every tree exactly, at any worker count.
func TestForestFitDigests(t *testing.T) {
	cases := []struct {
		name string
		data func() ([][]float64, []float64)
		cfg  ForestConfig
		want string
	}{
		{
			name: "bench-regression-default",
			data: func() ([][]float64, []float64) { return benchData(1200, 21) },
			cfg:  DefaultForestConfig(Regression),
			want: "cdd7beff9b5d44d97392794f796e4a7160a4b89fac767a2f433605c88df57470",
		},
		{
			name: "bench-regression-limits",
			data: func() ([][]float64, []float64) { return benchData(1200, 22) },
			cfg: ForestConfig{
				Trees:     6,
				Tree:      TreeConfig{Mode: Regression, MaxFeatures: 40, MinLeaf: 3, MaxDepth: 12},
				Bootstrap: true,
				Seed:      5,
			},
			want: "b6857f74475b80edf24cf2168c240063cb4a3b9011325f3d002b23d48571b54c",
		},
		{
			name: "continuous-regression",
			data: func() ([][]float64, []float64) { return continuousData(1500, 23) },
			cfg:  DefaultForestConfig(Regression),
			want: "fe47ed7bc785759e2ed3041acd86595f7bfc88dc1ec35af0398d9c8f648fc74e",
		},
		{
			name: "gini-classification",
			data: func() ([][]float64, []float64) { return classData(1200, 24) },
			cfg:  DefaultForestConfig(Classification),
			want: "d4969bf78a8e0d27072be2df4f8b43cb70bc2d97f2fb329febb2600de57926ae",
		},
	}
	for _, tc := range cases {
		X, y := tc.data()
		for _, workers := range []int{1, 4} {
			cfg := tc.cfg
			cfg.Workers = workers
			f := NewRandomForest(cfg)
			if err := f.Fit(X, y); err != nil {
				t.Fatal(err)
			}
			if got := forestDigest(f); got != tc.want {
				t.Errorf("%s, workers %d: digest %s, want %s", tc.name, workers, got, tc.want)
			}
		}
	}
}

// savedForestPath is a small regression forest written by Save before
// TreeConfig lost its Quantiles field: its gob config still carries it.
const savedForestPath = "testdata/forest_quantiles_field.gob"

// savedForest fits the forest stored at savedForestPath.
func savedForest() (*RandomForest, [][]float64, error) {
	X, y := benchData(300, 31)
	f := NewRandomForest(ForestConfig{
		Trees:     3,
		Tree:      TreeConfig{Mode: Regression, MaxDepth: 8},
		Bootstrap: true,
		Seed:      7,
	})
	return f, X, f.Fit(X, y)
}

// TestLoadForestWithQuantilesField loads a model saved with the removed
// config field (gob skips fields the destination lacks) and checks it
// predicts exactly what the same fit produces today.
func TestLoadForestWithQuantilesField(t *testing.T) {
	want, X, err := savedForest()
	if err != nil {
		t.Fatal(err)
	}
	fh, err := os.Open(savedForestPath)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	got, err := LoadForest(fh)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumTrees() != want.NumTrees() {
		t.Fatalf("loaded %d trees, want %d", got.NumTrees(), want.NumTrees())
	}
	for i, x := range X {
		if g, w := got.Predict(x), want.Predict(x); g != w {
			t.Fatalf("row %d: loaded forest predicts %v, fresh fit %v", i, g, w)
		}
	}
	if g, w := forestDigest(got), forestDigest(want); g != w {
		t.Fatalf("loaded forest digest %s, fresh fit %s", g, w)
	}
}
