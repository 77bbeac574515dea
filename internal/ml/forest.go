package ml

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tevot/internal/obs"
)

// Training/inference throughput gauges: the live view of whether the
// forest has stalled during an hours-long sweep. Set once per Fit /
// batched predict call — two time.Now reads and one atomic store, so
// the zero-alloc PredictBatchInto contract is untouched.
var (
	gFitRowsPerSec     = obs.NewGauge("ml.fit_rows_per_sec")
	gPredictRowsPerSec = obs.NewGauge("ml.predict_rows_per_sec")
)

// ForestConfig controls random-forest training.
type ForestConfig struct {
	// Trees is the ensemble size (default 10, the paper's stated
	// scikit-learn default).
	Trees int
	// Tree configures the member trees. Seed is overridden per tree.
	Tree TreeConfig
	// Bootstrap enables sampling with replacement per tree (default on
	// via NewRandomForest).
	Bootstrap bool
	// Seed drives bootstrap sampling and per-tree seeds.
	Seed int64
	// Workers bounds training parallelism; 0 means GOMAXPROCS.
	Workers int
}

// DefaultForestConfig mirrors the paper's setup: 10 trees, all features
// considered at each split, bootstrap sampling.
func DefaultForestConfig(mode Mode) ForestConfig {
	return ForestConfig{
		Trees:     10,
		Tree:      TreeConfig{Mode: mode},
		Bootstrap: true,
		Seed:      1,
	}
}

// RandomForest is a bagged ensemble of CART trees: the model the paper
// selects for TEVoT ("RFC" in Table II). Fitting or loading compiles
// the ensemble into one node arena (compiledForest) that every predict
// entry point walks allocation-free, over float rows or packed rows.
type RandomForest struct {
	cfg   ForestConfig
	trees []*DecisionTree
	arena *compiledForest
}

// NewRandomForest returns an unfitted forest.
func NewRandomForest(cfg ForestConfig) *RandomForest {
	if cfg.Trees <= 0 {
		cfg.Trees = 10
	}
	return &RandomForest{cfg: cfg}
}

// Fit trains every member tree, in parallel, each on its own bootstrap
// sample. Deterministic for a fixed Seed regardless of worker count: a
// tree's seed and bootstrap depend only on its index.
func (f *RandomForest) Fit(X [][]float64, y []float64) error {
	if len(X) == 0 {
		return fmt.Errorf("ml: empty training set")
	}
	if len(X) != len(y) {
		return fmt.Errorf("ml: %d rows but %d labels", len(X), len(y))
	}
	n := len(X)
	fitStart := time.Now()
	f.trees = make([]*DecisionTree, f.cfg.Trees)
	errs := make([]error, f.cfg.Trees)

	workers := f.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, f.cfg.Trees)
	// Each worker pulls tree indices and keeps one bootstrap buffer and
	// one fitScratch (bin matrix, histograms) for all the trees it fits.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := new(fitScratch)
			idx := make([]int, n)
			for {
				ti := int(next.Add(1)) - 1
				if ti >= f.cfg.Trees {
					return
				}
				cfg := f.cfg.Tree
				cfg.Seed = f.cfg.Seed + int64(ti)*7919
				tree := NewDecisionTree(cfg)
				if f.cfg.Bootstrap {
					rng := rand.New(rand.NewSource(cfg.Seed))
					for i := range idx {
						idx[i] = rng.Intn(n)
					}
				} else {
					for i := range idx {
						idx[i] = i
					}
				}
				errs[ti] = tree.fitIndices(X, y, idx, s)
				f.trees[ti] = tree
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	f.arena = compile(f.trees, f.cfg.Tree.Mode)
	if d := time.Since(fitStart).Seconds(); d > 0 {
		gFitRowsPerSec.Set(float64(n) / d)
	}
	return nil
}

// Predict aggregates the member trees: mean for regression, majority
// vote (lower class wins ties) for classification. It walks the
// compiled arena without allocating; an unfitted forest predicts 0.
func (f *RandomForest) Predict(x []float64) float64 {
	return f.predictOne(rowSet{float: [][]float64{x}})
}

// predictOne predicts the single row of s inline.
func (f *RandomForest) predictOne(s rowSet) float64 {
	if f.arena == nil {
		return 0
	}
	var out [1]float64
	f.arena.predictRange(s, out[:])
	return out[0]
}

// PredictBatch predicts many rows, partitioned in contiguous blocks
// across up to cfg.Workers goroutines.
func (f *RandomForest) PredictBatch(X [][]float64) []float64 {
	out := make([]float64, len(X))
	f.PredictBatchInto(out, X)
	return out
}

// PredictBatchInto is PredictBatch writing into the caller-provided dst
// (len(dst) must be >= len(X)), so a steady-state inference loop reuses
// one output buffer. Batches above minParallelRows rows per worker fan
// out to up to cfg.Workers goroutines; smaller ones run inline and
// allocation-free.
func (f *RandomForest) PredictBatchInto(dst []float64, X [][]float64) {
	f.predictInto(dst, rowSet{float: X})
}

// predictInto predicts the rows of s into dst and publishes the
// throughput gauge.
func (f *RandomForest) predictInto(dst []float64, s rowSet) {
	start := time.Now()
	dst = dst[:s.len()]
	if f.arena == nil {
		clear(dst)
	} else {
		f.arena.predictBlocked(s, dst, f.cfg.Workers)
	}
	if d := time.Since(start).Seconds(); d > 0 {
		gPredictRowsPerSec.Set(float64(len(dst)) / d)
	}
}

// CheckPacked reports whether the packed walk over rows with nbits bit
// features is exact for this forest: every split on a bit feature must
// have its threshold in [0, 1), where x <= threshold means the bit is
// clear, and every split feature must lie inside the packed row. Fitted
// forests pass by construction (a 0/1 column's only candidate is 0.5);
// a loaded one may not. Check once per model: the packed entry points
// rely on it and never check per call.
func (f *RandomForest) CheckPacked(nbits int) error {
	if f.arena == nil {
		return fmt.Errorf("ml: forest is not fitted")
	}
	return f.arena.checkPacked(nbits)
}

// PredictPacked is Predict for one packed row with nbits bit features.
// The forest must pass CheckPacked(nbits).
func (f *RandomForest) PredictPacked(row PackedRow, nbits int) float64 {
	return f.predictOne(rowSet{packed: []PackedRow{row}, nbits: int32(nbits)})
}

// PredictPackedInto is PredictBatchInto over packed rows with nbits bit
// features; every prediction equals Predict on the row's float form.
// The forest must pass CheckPacked(nbits).
func (f *RandomForest) PredictPackedInto(dst []float64, rows []PackedRow, nbits int) {
	f.predictInto(dst, rowSet{packed: rows, nbits: int32(nbits)})
}

// NumTrees reports the fitted ensemble size.
func (f *RandomForest) NumTrees() int { return len(f.trees) }

// Importance returns the mean impurity-decrease feature importance of
// the ensemble, normalized to sum to 1 (all zeros if no split was ever
// made). This is the interpretability the paper credits the random
// forest with: which bit positions and condition features drive the
// dynamic delay.
func (f *RandomForest) Importance() []float64 {
	if len(f.trees) == 0 || len(f.trees[0].importance) == 0 {
		return nil
	}
	total := make([]float64, len(f.trees[0].importance))
	for _, t := range f.trees {
		for i, v := range t.importance {
			total[i] += v
		}
	}
	sum := 0.0
	for _, v := range total {
		sum += v
	}
	if sum > 0 {
		for i := range total {
			total[i] /= sum
		}
	}
	return total
}

// Trees exposes the fitted member trees (for introspection in tests).
func (f *RandomForest) Trees() []*DecisionTree { return f.trees }
