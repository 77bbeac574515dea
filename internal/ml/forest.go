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
// selects for TEVoT ("RFC" in Table II). It keeps each tree only in the
// 16-byte compiled form (compiledForest) that every predict entry point
// walks allocation-free, over float rows or packed rows, and Save
// writes; fitting lays each tree out as soon as it is grown.
type RandomForest struct {
	cfg      ForestConfig
	compiled *compiledForest // nil until fitted or loaded
	// importance[i] is tree i's per-feature impurity decrease,
	// unnormalized.
	importance [][]float64
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
// tree's seed and bootstrap depend only on its index. The leading
// columns of X that hold only 0 and 1 are fitted as bit features
// (floatRows), as FitPacked fits packed bits.
func (f *RandomForest) Fit(X [][]float64, y []float64) error {
	return f.fit(floatRows(X), y)
}

// FitPacked is Fit over packed rows with nbits bit features: it grows,
// bit for bit, the trees Fit grows from the rows' float form. Bits at
// and above nbits are ignored. Training from the 32-byte rows that
// prediction walks needs no float matrix.
func (f *RandomForest) FitPacked(rows []PackedRow, nbits int, y []float64) error {
	if err := checkBits(nbits); err != nil {
		return err
	}
	return f.fit(rowSet{packed: rows, nbits: int32(nbits)}, y)
}

// fitScratches keeps fit workers' scratch between fits, so successive
// fits of similar size reuse it.
var fitScratches = sync.Pool{New: func() any { return new(fitScratch) }}

// fit is Fit over the rows of s.
func (f *RandomForest) fit(s rowSet, y []float64) error {
	n := s.len()
	if n == 0 {
		return fmt.Errorf("ml: empty training set")
	}
	if n != len(y) {
		return fmt.Errorf("ml: %d rows but %d labels", n, len(y))
	}
	fitStart := time.Now()
	cf := &compiledForest{trees: make([][]cnode, f.cfg.Trees), mode: f.cfg.Tree.Mode}
	importance := make([][]float64, f.cfg.Trees)
	classes := make([]int, f.cfg.Trees)
	errs := make([]error, f.cfg.Trees)

	workers := f.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, f.cfg.Trees)
	// Each worker pulls tree indices and keeps one fitScratch (bootstrap
	// buffer, bit words, bin matrix, histograms, node scratch) for all
	// the trees it fits, taken from fitScratches.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := fitScratches.Get().(*fitScratch)
			defer fitScratches.Put(sc)
			sc.boot = resize(sc.boot, n)
			idx := sc.boot
			for {
				ti := int(next.Add(1)) - 1
				if ti >= f.cfg.Trees {
					return
				}
				cfg := f.treeConfig(ti)
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
				if errs[ti] = tree.fitIndices(s, y, idx, sc); errs[ti] == nil {
					cf.trees[ti] = layout(tree.nodes)
					importance[ti], classes[ti] = tree.importance, tree.classes
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for _, c := range classes {
		cf.classes = max(cf.classes, c)
	}
	f.compiled, f.importance = cf, importance
	if d := time.Since(fitStart).Seconds(); d > 0 {
		gFitRowsPerSec.Set(float64(n) / d)
	}
	return nil
}

// treeConfig is member tree ti's configuration: the forest's, with a
// seed that depends only on ti.
func (f *RandomForest) treeConfig(ti int) TreeConfig {
	cfg := f.cfg.Tree
	cfg.Seed = f.cfg.Seed + int64(ti)*7919
	return cfg.withDefaults()
}

// Predict aggregates the member trees: mean for regression, majority
// vote (lower class wins ties) for classification. It walks the
// compiled trees without allocating; an unfitted forest predicts 0.
func (f *RandomForest) Predict(x []float64) float64 {
	return f.predictOne(rowSet{float: [][]float64{x}})
}

// predictOne predicts the single row of s inline.
func (f *RandomForest) predictOne(s rowSet) float64 {
	if f.compiled == nil {
		return 0
	}
	var out [1]float64
	f.compiled.predictRange(s, out[:])
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
	if f.compiled == nil {
		clear(dst)
	} else {
		f.compiled.predictBlocked(s, dst, f.cfg.Workers)
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
	if f.compiled == nil {
		return fmt.Errorf("ml: forest is not fitted")
	}
	return f.compiled.checkPacked(nbits)
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
func (f *RandomForest) NumTrees() int { return len(f.importance) }

// Importance returns the mean impurity-decrease feature importance of
// the ensemble, normalized to sum to 1 (all zeros if no split was ever
// made). This is the interpretability the paper credits the random
// forest with: which bit positions and condition features drive the
// dynamic delay.
func (f *RandomForest) Importance() []float64 {
	if len(f.importance) == 0 || len(f.importance[0]) == 0 {
		return nil
	}
	total := make([]float64, len(f.importance[0]))
	for _, imp := range f.importance {
		for i, v := range imp {
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
