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
// selects for TEVoT ("RFC" in Table II). After fitting (or loading) the
// ensemble is additionally packed into a flat node arena (see
// flatForest) that Predict and PredictBatch walk allocation-free.
type RandomForest struct {
	cfg   ForestConfig
	trees []*DecisionTree
	flat  *flatForest
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
	f.flat = flatten(f.trees, f.cfg.Tree.Mode)
	if d := time.Since(fitStart).Seconds(); d > 0 {
		gFitRowsPerSec.Set(float64(n) / d)
	}
	return nil
}

// Predict aggregates the member trees: mean for regression, majority
// vote (lower class wins ties) for classification. The fitted forest
// predicts through the flat arena without allocating.
func (f *RandomForest) Predict(x []float64) float64 {
	if f.flat != nil {
		var stack [maxStackClasses]int
		votes := stack[:]
		if f.flat.classes > maxStackClasses {
			votes = make([]int, f.flat.classes)
		}
		return f.flat.predictRow(x, votes)
	}
	if len(f.trees) == 0 {
		return 0
	}
	return f.predictTrees(x)
}

// predictTrees is the pointer-tree reference aggregation, kept for
// unpacked forests and as the oracle the flat arena is tested against.
func (f *RandomForest) predictTrees(x []float64) float64 {
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

// PredictBatch predicts many rows, partitioned in contiguous blocks
// across up to cfg.Workers goroutines.
func (f *RandomForest) PredictBatch(X [][]float64) []float64 {
	out := make([]float64, len(X))
	f.PredictBatchInto(out, X)
	return out
}

// PredictBatchInto is PredictBatch writing into the caller-provided dst
// (len(dst) must be >= len(X)), so a steady-state inference loop reuses
// one output buffer. Blocks of rows are predicted on up to cfg.Workers
// goroutines; small batches run inline and allocation-free.
func (f *RandomForest) PredictBatchInto(dst []float64, X [][]float64) {
	start := time.Now()
	if f.flat != nil {
		f.flat.predictBlocked(X, dst[:len(X)], f.cfg.Workers)
	} else {
		for i := range X {
			dst[i] = f.Predict(X[i])
		}
	}
	if d := time.Since(start).Seconds(); d > 0 {
		gPredictRowsPerSec.Set(float64(len(X)) / d)
	}
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
