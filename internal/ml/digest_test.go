package ml

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"testing"
)

// compiledDigest hashes a fitted forest as every prediction walks it
// and Save writes it: per tree, its node count, then each compiled node
// in breadth-first order (feature, threshold or leaf-value bits, and
// first child, 0 for a leaf), then the tree's importances. It hashes the
// trees, not the gob encoding, so a change to the serialized config does
// not move it while any change to a split, a leaf or an importance does.
func compiledDigest(f *RandomForest) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for ti, nodes := range f.compiled.trees {
		put(uint64(len(nodes)))
		for _, n := range nodes {
			put(uint64(int64(n.feat)))
			put(math.Float64bits(n.v))
			put(uint64(int64(n.kid)))
		}
		imp := f.importance[ti]
		put(uint64(len(imp)))
		for _, v := range imp {
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

// nhData is benchData in the TEVoT-NH layout: 64 bit features (the
// current operand pair) plus V and T.
func nhData(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x := randomRow(rng, 64)
		X[i] = x
		v := 0.0
		for j := 24; j < 32; j++ {
			v += x[j] * float64(j)
		}
		y[i] = (100 + 20*v + 5*x[50]) * (2 - x[64])
	}
	return X, y
}

// appData is an application-shaped set in the TEVoT layout: most
// operands are 8-bit pixels, so their high bits are zero in most rows
// and constant over many nodes; one row in ten carries a full 32-bit
// operand pair.
func appData(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	operand := func() uint64 {
		if rng.Intn(10) == 0 {
			return uint64(rng.Uint32())
		}
		return uint64(rng.Intn(256))
	}
	X := make([][]float64, n)
	y := make([]float64, n)
	prev := operand() | operand()<<32
	for i := range X {
		cur := operand() | operand()<<32
		x := make([]float64, 130)
		for j := 0; j < 64; j++ {
			x[j] = float64(cur >> j & 1)
			x[64+j] = float64(prev >> j & 1)
		}
		x[128] = 0.81 + float64(rng.Intn(20))*0.01
		x[129] = float64(rng.Intn(5)) * 25
		X[i] = x
		// Delay grows with the carry chain's reach: the top set bit of
		// the sum, and a little with what the previous pair left behind.
		sum := cur&0xffffffff + cur>>32
		y[i] = (50 + 12*float64(bits.Len64(sum)) + 3*float64(bits.OnesCount64(cur^prev)%7)) * (2 - x[128])
		prev = cur
	}
	return X, y
}

// packRows is X in the packed layout with nbits bit features.
func packRows(X [][]float64, nbits int) []PackedRow {
	rows := make([]PackedRow, len(X))
	for i, x := range X {
		rows[i] = packRow(x, nbits)
	}
	return rows
}

// TestForestFitDigests pins fitted forests bit for bit, at any worker
// count, by compiledDigest. Each digest was recorded from fits that
// also reproduced a digest of the pointer trees: for the first four
// cases one taken from the linear-search split finder, for the last two
// the all-float fit's. Fit bins a case's leading 0/1 columns as bits;
// each case is fitted a second time with every column binned as a
// float, and a case with nbits > 0 a third time from the same rows
// packed with nbits bit features (FitPacked), with junk in the bits
// above them. All must grow the same trees.
func TestForestFitDigests(t *testing.T) {
	cases := []struct {
		name  string
		data  func() ([][]float64, []float64)
		cfg   ForestConfig
		nbits int
		want  string
	}{
		{
			name:  "bench-regression-default",
			data:  func() ([][]float64, []float64) { return benchData(1200, 21) },
			cfg:   DefaultForestConfig(Regression),
			nbits: 128,
			want:  "329d7e249b93dc67515541357de67ab508bbbbd50f4523b1770454d53d518554",
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
			nbits: 128,
			want:  "88a4ffb80870258e23874bafb4d3c0a5a7c542ea6400e4e7d398c2a66020cc2a",
		},
		{
			name: "continuous-regression",
			data: func() ([][]float64, []float64) { return continuousData(1500, 23) },
			cfg:  DefaultForestConfig(Regression),
			want: "51dee39e88be494eb3c9ad37706d81e90c5c307fba1513f50c4135010f0c2770",
		},
		{
			name:  "gini-classification",
			data:  func() ([][]float64, []float64) { return classData(1200, 24) },
			cfg:   DefaultForestConfig(Classification),
			nbits: 128,
			want:  "741b6515d98b590511d57dd504cd3f6238206b2b3430a6306400f03cc3bbd99e",
		},
		{
			name: "nh-regression-limits",
			data: func() ([][]float64, []float64) { return nhData(1200, 25) },
			cfg: ForestConfig{
				Trees:     6,
				Tree:      TreeConfig{Mode: Regression, MaxFeatures: 20, MinLeaf: 2},
				Bootstrap: true,
				Seed:      6,
			},
			nbits: 64,
			want:  "2a4111b348e223c5cbaf5e445bb1a133cfb2b2695a489c78998e4df0dc13a438",
		},
		{
			name:  "app-regression-default",
			data:  func() ([][]float64, []float64) { return appData(1500, 26) },
			cfg:   DefaultForestConfig(Regression),
			nbits: 128,
			want:  "26cdd064c25e4102da481d2f097ecab332ff013249c3fadea0f9a725843e0ca1",
		},
	}
	for _, tc := range cases {
		X, y := tc.data()
		if got := floatRows(X).nbits; int(got) != tc.nbits {
			t.Fatalf("%s: Fit finds %d leading 0/1 columns, want %d", tc.name, got, tc.nbits)
		}
		fits := []struct {
			name string
			fit  func(*RandomForest) error
		}{
			{"all-float", func(f *RandomForest) error { return f.fit(rowSet{float: X}, y) }},
			{"float", func(f *RandomForest) error { return f.Fit(X, y) }},
		}
		if tc.nbits > 0 {
			rows := packRows(X, tc.nbits)
			// FitPacked ignores the bits at and above nbits: set some.
			for i := range rows {
				for f := tc.nbits; f < 128; f++ {
					if (i+f)%3 == 0 {
						rows[i].Bits[f>>6] |= 1 << (f & 63)
					}
				}
			}
			fits = append(fits, struct {
				name string
				fit  func(*RandomForest) error
			}{"packed", func(f *RandomForest) error { return f.FitPacked(rows, tc.nbits, y) }})
		}
		for _, workers := range []int{1, 4} {
			for _, fc := range fits {
				cfg := tc.cfg
				cfg.Workers = workers
				f := NewRandomForest(cfg)
				if err := fc.fit(f); err != nil {
					t.Fatal(err)
				}
				if got := compiledDigest(f); got != tc.want {
					t.Errorf("%s, workers %d, %s: digest %s, want %s", tc.name, workers, fc.name, got, tc.want)
				}
			}
		}
	}
}

// TestFloatRowsBitPrefix checks which leading columns Fit takes as bit
// features: those holding only 0 and 1 in every row, at most 128.
func TestFloatRowsBitPrefix(t *testing.T) {
	ones := func(n int) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = 1
		}
		return x
	}
	for _, tc := range []struct {
		name string
		X    [][]float64
		want int32
	}{
		{"0/1 then a float", [][]float64{{0, 1, 1, 0.85}, {1, 0, 1, 0.9}}, 3},
		{"a 2 in one row", [][]float64{{0, 1, 1, 0.85}, {1, 2, 1, 0.9}}, 1},
		{"NaN", [][]float64{{0, math.NaN(), 1}}, 1},
		{"negative zero is 0", [][]float64{{math.Copysign(0, -1), 1, 3}}, 2},
		{"float first", [][]float64{{0.5, 1, 1}}, 0},
		{"all 0/1", [][]float64{{0, 1}, {1, 1}}, 2},
		{"capped at 128", [][]float64{ones(200)}, 128},
	} {
		if got := floatRows(tc.X).nbits; got != tc.want {
			t.Errorf("%s: %d bit features, want %d", tc.name, got, tc.want)
		}
	}
}

// TestFitPackedRefusesBadInput checks FitPacked's argument checks.
func TestFitPackedRefusesBadInput(t *testing.T) {
	rows := make([]PackedRow, 4)
	y := make([]float64, 4)
	for _, tc := range []struct {
		name  string
		rows  []PackedRow
		nbits int
		y     []float64
	}{
		{"negative nbits", rows, -1, y},
		{"nbits past the row", rows, 129, y},
		{"label count", rows, 128, y[:3]},
		{"no rows", nil, 128, nil},
	} {
		if err := NewRandomForest(DefaultForestConfig(Regression)).FitPacked(tc.rows, tc.nbits, tc.y); err == nil {
			t.Errorf("%s: FitPacked accepted it", tc.name)
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
	if g, w := compiledDigest(got), compiledDigest(want); g != w {
		t.Fatalf("loaded forest digest %s, fresh fit %s", g, w)
	}
}
