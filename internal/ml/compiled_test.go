package ml

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// predictTrees is the pointer-tree reference aggregation, the oracle
// the compiled arena must match.
func predictTrees(f *RandomForest, x []float64) float64 {
	if f.cfg.Tree.Mode == Regression {
		sum := 0.0
		for _, t := range f.trees {
			sum += t.Predict(x)
		}
		return sum / float64(len(f.trees))
	}
	votes := make(map[int]int)
	bestC, bestN := 0, -1
	for _, t := range f.trees {
		c := int(t.Predict(x))
		votes[c]++
		// Deterministic tie-break: lower class wins on equal votes.
		if votes[c] > bestN || (votes[c] == bestN && c < bestC) {
			bestC, bestN = c, votes[c]
		}
	}
	return float64(bestC)
}

// randomRow draws a TEVoT-shaped feature vector: nbits 0/1 features
// (128 with history, 64 without), then V and T.
func randomRow(rng *rand.Rand, nbits int) []float64 {
	x := make([]float64, nbits+2)
	for j := 0; j < nbits; j++ {
		x[j] = float64(rng.Intn(2))
	}
	x[nbits] = 0.81 + float64(rng.Intn(20))*0.01
	x[nbits+1] = float64(rng.Intn(5)) * 25
	return x
}

// packRow is x in the packed layout with nbits bit features.
func packRow(x []float64, nbits int) PackedRow {
	var r PackedRow
	for f := 0; f < nbits; f++ {
		if x[f] != 0 {
			r.Bits[f/64] |= 1 << (f % 64)
		}
	}
	copy(r.Tail[:], x[nbits:])
	return r
}

// fitRandom fits a forest on TEVoT-shaped rows with nbits bit features.
func fitRandom(t *testing.T, mode Mode, nbits int, seed int64) *RandomForest {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, 400)
	y := make([]float64, len(X))
	for i := range X {
		X[i] = randomRow(rng, nbits)
		if mode == Regression {
			y[i] = 100 + 40*X[i][30] + 20*X[i][62] + X[i][nbits]*10 + rng.Float64()
		} else {
			y[i] = float64(rng.Intn(3))
		}
	}
	cfg := DefaultForestConfig(mode)
	cfg.Seed = seed
	f := NewRandomForest(cfg)
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := f.CheckPacked(nbits); err != nil {
		t.Fatalf("fitted forest fails the packed check: %v", err)
	}
	return f
}

// TestCompiledForestMatchesPointerTrees is the quickcheck of the
// compiled arena: across random forests (both modes, both row layouts,
// several seeds) and random rows, every entry point — float rows one at
// a time and batched, packed rows one at a time and batched — must
// agree exactly with the pointer-tree walk. Every 50th row has a NaN V,
// which fails x <= threshold and so goes right in every walk. The
// 1100-row batches take the goroutine fan-out wherever GOMAXPROCS >= 2.
func TestCompiledForestMatchesPointerTrees(t *testing.T) {
	for _, mode := range []Mode{Regression, Classification} {
		for _, nbits := range []int{128, 64} {
			for seed := int64(1); seed <= 3; seed++ {
				f := fitRandom(t, mode, nbits, seed)
				if f.arena == nil {
					t.Fatal("Fit did not compile the arena")
				}
				rng := rand.New(rand.NewSource(seed + 100))
				for _, n := range []int{1, 31, 700, 1100} {
					X := make([][]float64, n)
					rows := make([]PackedRow, n)
					for i := range X {
						X[i] = randomRow(rng, nbits)
						if i%50 == 49 {
							X[i][nbits] = math.NaN()
						}
						rows[i] = packRow(X[i], nbits)
					}
					out := f.PredictBatch(X)
					packed := make([]float64, n)
					f.PredictPackedInto(packed, rows, nbits)
					for i := range X {
						want := predictTrees(f, X[i])
						got := map[string]float64{
							"Predict":           f.Predict(X[i]),
							"PredictBatch":      out[i],
							"PredictPacked":     f.PredictPacked(rows[i], nbits),
							"PredictPackedInto": packed[i],
						}
						for name, v := range got {
							if v != want {
								t.Fatalf("mode %v nbits %d seed %d batch %d row %d: %s %v != pointer-tree %v",
									mode, nbits, seed, n, i, name, v, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestCompiledForestSurvivesSaveLoad checks that a round-tripped forest
// recompiles its arena and predicts identically.
func TestCompiledForestSurvivesSaveLoad(t *testing.T) {
	f := fitRandom(t, Regression, 128, 9)
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := LoadForest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.arena == nil {
		t.Fatal("LoadForest did not compile the arena")
	}
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 200; trial++ {
		x := randomRow(rng, 128)
		if got, want := g.Predict(x), f.Predict(x); got != want {
			t.Fatalf("trial %d: loaded forest predicts %v, original %v", trial, got, want)
		}
		r := packRow(x, 128)
		if got, want := g.PredictPacked(r, 128), f.Predict(x); got != want {
			t.Fatalf("trial %d: loaded forest predicts %v packed, original %v", trial, got, want)
		}
	}
}

// TestCheckPackedRefusesInexactSplits: a bit-feature split at 1.5
// sends a set bit left in the float walk and right in the packed walk,
// and a split past the tail indexes outside the row; both are refused.
func TestCheckPackedRefusesInexactSplits(t *testing.T) {
	for _, tc := range []struct {
		name    string
		feature int32
		thr     float64
		nbits   int
		want    string
	}{
		{"bit split at 1.5", 3, 1.5, 128, "outside [0, 1)"},
		{"bit split below 0", 70, -0.5, 128, "outside [0, 1)"},
		{"bit split at NaN", 3, math.NaN(), 64, "outside [0, 1)"},
		{"feature past the tail", 66, 0.5, 64, "outside a packed row"},
		{"too many bits", 3, 0.5, 129, "at most 128 bit features"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := &RandomForest{cfg: DefaultForestConfig(Regression), trees: []*DecisionTree{{
				nodes: []node{
					{feature: tc.feature, threshold: tc.thr, left: 1, right: 2},
					{feature: -1, value: 1},
					{feature: -1, value: 2},
				},
			}}}
			f.arena = compile(f.trees, Regression)
			err := f.CheckPacked(tc.nbits)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckPacked(%d) = %v, want an error containing %q", tc.nbits, err, tc.want)
			}
		})
	}
	if err := (&RandomForest{}).CheckPacked(128); err == nil {
		t.Error("CheckPacked passed an unfitted forest")
	}
}

// TestPredictBatchIntoNoAllocs locks in the allocation-free inference
// entry points (inline, no goroutine fan-out) for both modes: float
// rows batched and one at a time, packed rows batched and one at a time.
func TestPredictBatchIntoNoAllocs(t *testing.T) {
	for _, mode := range []Mode{Regression, Classification} {
		f := fitRandom(t, mode, 128, 4)
		f.cfg.Workers = 1
		rng := rand.New(rand.NewSource(5))
		X := make([][]float64, 300)
		rows := make([]PackedRow, len(X))
		for i := range X {
			X[i] = randomRow(rng, 128)
			rows[i] = packRow(X[i], 128)
		}
		dst := make([]float64, len(X))
		for name, call := range map[string]func(){
			"PredictBatchInto":  func() { f.PredictBatchInto(dst, X) },
			"Predict":           func() { f.Predict(X[0]) },
			"PredictPackedInto": func() { f.PredictPackedInto(dst, rows, 128) },
			"PredictPacked":     func() { f.PredictPacked(rows[0], 128) },
		} {
			if allocs := testing.AllocsPerRun(20, call); allocs != 0 {
				t.Errorf("mode %v: %s allocates %.1f times per call; want 0", mode, name, allocs)
			}
		}
	}
}
