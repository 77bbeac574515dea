// Package ml is the from-scratch supervised-learning library used to
// train TEVoT: CART decision trees, random forests (the paper's chosen
// model), k-nearest neighbors, ridge ("linear") regression, and a linear
// SVM trained with the Pegasos subgradient method — the four methods
// compared in the paper's Table II — plus dataset utilities and metrics.
//
// All learners share the convention that feature vectors are []float64
// and labels are float64 (class labels are small non-negative integers
// stored in float64, exact below 2^53).
package ml

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Mode selects a tree's impurity criterion and leaf aggregation.
type Mode int

const (
	// Regression minimizes sum-of-squared-error; leaves predict the mean.
	Regression Mode = iota
	// Classification minimizes Gini impurity; leaves predict the
	// majority class.
	Classification
)

// TreeConfig controls decision-tree induction.
type TreeConfig struct {
	Mode Mode
	// MaxDepth limits tree depth; 0 means unlimited.
	MaxDepth int
	// MinLeaf is the minimum number of samples in a leaf (default 1).
	MinLeaf int
	// MaxFeatures is the number of features examined per split; 0 means
	// all features (the paper's stated scikit-learn default).
	MaxFeatures int
	// Seed drives the per-split feature subsampling when MaxFeatures > 0.
	Seed int64
}

// quantiles caps the number of candidate thresholds per feature.
// Features with fewer distinct values use exact midpoints; binary
// features always get their single midpoint. A row's bin among at most
// quantiles thresholds is at most quantiles, so it fits a uint8.
const quantiles = 8

func (c TreeConfig) withDefaults() TreeConfig {
	if c.MinLeaf <= 0 {
		c.MinLeaf = 1
	}
	return c
}

// node is one tree node; leaves have feature == -1.
type node struct {
	feature   int32
	threshold float64
	left      int32 // index into nodes
	right     int32
	value     float64 // leaf prediction
}

// DecisionTree is a CART tree with binned split search. Split
// candidates are fixed per feature once per fit (globalThresholds), and
// every distinct training row is binned once among them into a uint8
// matrix. Each node then builds the bin histograms of every feature in
// one pass over its rows and sweeps the candidates of each feature it
// examines from its histogram.
type DecisionTree struct {
	cfg        TreeConfig
	nodes      []node
	classes    int       // for Classification: number of classes
	importance []float64 // per-feature accumulated impurity decrease
}

// NewDecisionTree returns an unfitted tree.
func NewDecisionTree(cfg TreeConfig) *DecisionTree {
	return &DecisionTree{cfg: cfg.withDefaults()}
}

// Fit builds the tree on the given samples. In Classification mode the
// labels must be small non-negative integers.
func (t *DecisionTree) Fit(X [][]float64, y []float64) error {
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	return t.fitIndices(X, y, idx, new(fitScratch))
}

// fitIndices builds the tree on the rows in idx (indices may repeat, as
// in a bootstrap sample), with its working buffers taken from s, which
// a forest worker reuses across the trees it fits. The idx slice is
// consumed.
func (t *DecisionTree) fitIndices(X [][]float64, y []float64, idx []int, s *fitScratch) error {
	if len(idx) == 0 || len(X) == 0 {
		return fmt.Errorf("ml: empty training set")
	}
	if len(X) != len(y) {
		return fmt.Errorf("ml: %d rows but %d labels", len(X), len(y))
	}
	t.classes = 0
	if t.cfg.Mode == Classification {
		for _, i := range idx {
			v := y[i]
			if v < 0 || v != math.Trunc(v) {
				return fmt.Errorf("ml: classification label %v is not a non-negative integer", v)
			}
			if int(v)+1 > t.classes {
				t.classes = int(v) + 1
			}
		}
	}
	nf := len(X[0])
	t.nodes = t.nodes[:0]
	t.importance = make([]float64, nf)
	s.compact(idx, y)
	b := &treeBuilder{
		t:   t,
		y:   s.y,
		nf:  nf,
		rng: rand.New(rand.NewSource(t.cfg.Seed)),
		ths: globalThresholds(X, s.rows),
		s:   s,
	}
	s.reset(X, b.ths, t.classes)
	b.grow(idx, 0)
	return nil
}

// globalThresholds computes the per-feature split candidates once from
// the training rows (each listed once: only the distinct values count):
// midpoints between consecutive distinct values when there are few, else
// quantile midpoints. One scratch buffer serves every feature — raw
// values, distinct values, and midpoints all share its storage — and
// only the final candidate list is copied out, exactly sized, because
// ths outlives this call. Each feature's candidates are non-decreasing.
func globalThresholds(X [][]float64, rows []int) [][]float64 {
	nf := len(X[0])
	ths := make([][]float64, nf)
	scratch := make([]float64, 0, len(rows))
	for f := 0; f < nf; f++ {
		vals := scratch[:0]
		for _, i := range rows {
			vals = append(vals, X[i][f])
		}
		sort.Float64s(vals)
		// Distinct values, in place.
		distinct := vals[:0:len(vals)]
		prev := math.NaN()
		for _, v := range vals {
			if v != prev {
				distinct = append(distinct, v)
				prev = v
			}
		}
		if len(distinct) < 2 {
			continue
		}
		// Midpoints, in place over the distinct values: slot j-1 is
		// rewritten after it is read and before slot j is needed.
		mids := distinct[:len(distinct)-1]
		for j := 1; j < len(distinct); j++ {
			mids[j-1] = (distinct[j-1] + distinct[j]) / 2
		}
		if len(mids) > quantiles {
			strided := make([]float64, quantiles)
			for k := range strided {
				strided[k] = mids[k*len(mids)/quantiles]
			}
			ths[f] = strided
		} else {
			ths[f] = append([]float64(nil), mids...)
		}
	}
	return ths
}

// Predict returns the tree's output for one feature vector.
func (t *DecisionTree) Predict(x []float64) float64 {
	if len(t.nodes) == 0 {
		return 0
	}
	i := int32(0)
	for {
		n := &t.nodes[i]
		if n.feature < 0 {
			return n.value
		}
		if x[n.feature] <= n.threshold {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// NumNodes reports the size of the fitted tree.
func (t *DecisionTree) NumNodes() int { return len(t.nodes) }

// Importance returns the per-feature accumulated impurity decrease of
// the fitted tree (unnormalized). The slice is owned by the tree.
func (t *DecisionTree) Importance() []float64 { return t.importance }

// Depth reports the fitted tree's depth (a leaf-only tree has depth 0).
func (t *DecisionTree) Depth() int {
	if len(t.nodes) == 0 {
		return 0
	}
	var walk func(i int32) int
	walk = func(i int32) int {
		n := &t.nodes[i]
		if n.feature < 0 {
			return 0
		}
		l, r := walk(n.left), walk(n.right)
		if r > l {
			l = r
		}
		return l + 1
	}
	return walk(0)
}

// binStats is one regression histogram slot: the count, sum and sum of
// squares of the labels whose row falls in one bucket of one feature.
type binStats struct {
	n       int
	sum, sq float64
}

// fitScratch holds a tree fit's working buffers. RandomForest.Fit gives
// each of its workers one and reuses it for every tree the worker fits.
type fitScratch struct {
	// pos maps a row of X to its compact id; rows maps back, and y
	// holds the compact rows' labels. Only rows the tree trains on get
	// an id: a bootstrap of n draws holds about 0.63n distinct rows.
	pos  []int
	rows []int
	y    []float64
	// bins is the row-major bin matrix over the compact rows: bins[c*nf+f]
	// is the bucket of X[rows[c]][f] among the tree's candidates for f.
	bins []uint8
	// off[f] is the first histogram slot of feature f, which owns
	// len(ths[f])+1 consecutive slots, one per bucket.
	off []int
	// all lists every feature, in order.
	all []int
	// hist is the regression histogram, one binStats per slot; cls is
	// the classification histogram, one class-count row per slot.
	hist []binStats
	cls  []int
	// totClass and classL are a Gini sweep's running class counts.
	totClass, classL []int
}

// compact numbers the d distinct rows in idx 0..d-1, in ascending row
// order, rewrites idx in place to those ids, and gathers their labels.
// The tree then bins, and reads labels from, only those d rows; idx
// keeps its order, so every sum adds the same labels in the same order.
func (s *fitScratch) compact(idx []int, y []float64) {
	s.pos = resize(s.pos, len(y))
	clear(s.pos)
	d := 0
	for _, i := range idx {
		if s.pos[i] == 0 {
			s.pos[i] = 1
			d++
		}
	}
	s.rows, s.y = resize(s.rows, d), resize(s.y, d)
	c := 0
	for r, seen := range s.pos {
		if seen != 0 {
			s.pos[r] = c
			s.rows[c], s.y[c] = r, y[r]
			c++
		}
	}
	for j, i := range idx {
		idx[j] = s.pos[i]
	}
}

// reset lays out the histograms for thresholds ths and bins the compact
// rows. A row's bucket is the number of candidates strictly below its
// value, so bucket <= k exactly when the value is <= ths[k] (the
// candidates are non-decreasing).
func (s *fitScratch) reset(X [][]float64, ths [][]float64, classes int) {
	nf := len(ths)
	s.off = resize(s.off, nf)
	s.all = resize(s.all, nf)
	slots := 0
	for f, th := range ths {
		s.off[f] = slots
		s.all[f] = f
		slots += len(th) + 1
	}
	s.hist = resize(s.hist, slots)
	s.cls = resize(s.cls, slots*classes)
	s.totClass = resize(s.totClass, classes)
	s.classL = resize(s.classL, classes)
	s.bins = resize(s.bins, len(s.rows)*nf)
	for c, r := range s.rows {
		row := s.bins[c*nf : c*nf+nf]
		x := X[r]
		for f, th := range ths {
			v := x[f]
			k := 0
			for k < len(th) && v > th[k] {
				k++
			}
			row[f] = uint8(k)
		}
	}
}

// resize returns s with length n, reusing its storage when it is large
// enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// treeBuilder grows one tree over compact row ids (fitScratch.compact).
type treeBuilder struct {
	t   *DecisionTree
	y   []float64 // labels by compact id
	nf  int
	rng *rand.Rand
	ths [][]float64 // global per-feature candidates
	s   *fitScratch
}

// grow recursively builds the subtree over idx and returns its node index.
func (b *treeBuilder) grow(idx []int, depth int) int32 {
	t := b.t
	cfg := t.cfg

	leafValue, impurity := b.leafStats(idx)
	self := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{feature: -1, value: leafValue})

	if impurity <= 1e-12 || len(idx) < 2*cfg.MinLeaf ||
		(cfg.MaxDepth > 0 && depth >= cfg.MaxDepth) {
		return self
	}

	feat, bin, gain := b.bestSplit(idx, impurity)
	if feat < 0 || gain <= 1e-12 {
		return self
	}
	t.importance[feat] += gain

	// Partition in place: bin <= k is exactly X <= ths[k].
	bins, nf, k := b.s.bins, b.nf, uint8(bin)
	lo, hi := 0, len(idx)
	for lo < hi {
		if bins[idx[lo]*nf+feat] <= k {
			lo++
		} else {
			hi--
			idx[lo], idx[hi] = idx[hi], idx[lo]
		}
	}
	if lo < cfg.MinLeaf || len(idx)-lo < cfg.MinLeaf {
		return self
	}

	left := b.grow(idx[:lo], depth+1)
	right := b.grow(idx[lo:], depth+1)
	t.nodes[self] = node{feature: int32(feat), threshold: b.ths[feat][bin], left: left, right: right, value: leafValue}
	return self
}

// leafStats returns the leaf prediction and the node impurity (SSE for
// regression, count-scaled Gini for classification).
func (b *treeBuilder) leafStats(idx []int) (value, impurity float64) {
	if b.t.cfg.Mode == Regression {
		var sum, sumsq float64
		for _, i := range idx {
			v := b.y[i]
			sum += v
			sumsq += v * v
		}
		n := float64(len(idx))
		mean := sum / n
		sse := sumsq - sum*mean
		if sse < 0 {
			sse = 0 // numerical guard
		}
		return mean, sse
	}
	counts := make([]int, b.t.classes)
	for _, i := range idx {
		counts[int(b.y[i])]++
	}
	best, bestN := 0, -1
	sumSq := 0.0
	n := float64(len(idx))
	for c, k := range counts {
		if k > bestN {
			best, bestN = c, k
		}
		p := float64(k) / n
		sumSq += p * p
	}
	return float64(best), (1 - sumSq) * n
}

// bestSplit finds the split of (a subset of) features with the largest
// impurity decrease: one pass over idx fills every feature's histogram,
// then the examined features are swept in featureOrder order, ties
// going to the first. It returns the feature and the bucket k of its
// threshold ths[k].
func (b *treeBuilder) bestSplit(idx []int, parent float64) (feat, bin int, gain float64) {
	if b.t.cfg.Mode == Regression {
		b.fillRegression(idx)
	} else {
		b.fillGini(idx)
	}
	feat = -1
	for _, f := range b.featureOrder() {
		if len(b.ths[f]) == 0 {
			continue
		}
		var g float64
		var k int
		var ok bool
		if b.t.cfg.Mode == Regression {
			g, k, ok = b.sweepRegression(f, parent)
		} else {
			g, k, ok = b.sweepGini(f, parent)
		}
		if ok && g > gain {
			feat, bin, gain = f, k, g
		}
	}
	return feat, bin, gain
}

// featureOrder returns all features, or a random subset of MaxFeatures.
func (b *treeBuilder) featureOrder() []int {
	mf := b.t.cfg.MaxFeatures
	if mf <= 0 || mf >= b.nf {
		return b.s.all
	}
	return b.rng.Perm(b.nf)[:mf]
}

// fillRegression builds the count, sum and sum-of-squares histograms of
// every feature in one pass over idx, walking each row's bins in order.
// Every (feature, bucket) slot adds the same labels in the same idx
// order as a scan of that feature alone would. Slots of features the
// node does not examine, and the one slot of a feature without
// candidates, are filled and never read.
func (b *treeBuilder) fillRegression(idx []int) {
	hist, off, bins, y, nf := b.s.hist, b.s.off, b.s.bins, b.y, b.nf
	clear(hist)
	for _, i := range idx {
		row := bins[i*nf : i*nf+nf]
		v := y[i]
		for f, k := range row {
			h := &hist[off[f]+int(k)]
			h.n++
			h.sum += v
			h.sq += v * v
		}
	}
}

// sweepRegression sweeps feature f's histogram for its best
// SSE-decreasing threshold and returns that threshold's bucket.
func (b *treeBuilder) sweepRegression(f int, parent float64) (gain float64, bin int, ok bool) {
	ths := b.ths[f]
	h := b.s.hist[b.s.off[f] : b.s.off[f]+len(ths)+1]
	var totSum, totSq float64
	tot := 0
	for k := range h {
		tot += h[k].n
		totSum += h[k].sum
		totSq += h[k].sq
	}
	var nL int
	var sumL, sqL float64
	minLeaf := b.t.cfg.MinLeaf
	for k := 0; k < len(ths); k++ {
		nL += h[k].n
		sumL += h[k].sum
		sqL += h[k].sq
		nR := tot - nL
		if nL < minLeaf || nR < minLeaf {
			continue
		}
		sumR := totSum - sumL
		sqR := totSq - sqL
		sseL := sqL - sumL*sumL/float64(nL)
		sseR := sqR - sumR*sumR/float64(nR)
		if g := parent - sseL - sseR; g > gain {
			gain, bin, ok = g, k, true
		}
	}
	return gain, bin, ok
}

// fillGini is fillRegression's classification counterpart: per-bucket
// class counts.
func (b *treeBuilder) fillGini(idx []int) {
	cls, off, bins, y, nf, kcls := b.s.cls, b.s.off, b.s.bins, b.y, b.nf, b.t.classes
	clear(cls)
	for _, i := range idx {
		row := bins[i*nf : i*nf+nf]
		c := int(y[i])
		for f, k := range row {
			cls[(off[f]+int(k))*kcls+c]++
		}
	}
}

// sweepGini is sweepRegression's classification counterpart.
func (b *treeBuilder) sweepGini(f int, parent float64) (gain float64, bin int, ok bool) {
	ths := b.ths[f]
	kcls := b.t.classes
	h := b.s.cls[b.s.off[f]*kcls : (b.s.off[f]+len(ths)+1)*kcls]
	totClass, classL := b.s.totClass, b.s.classL
	clear(totClass)
	clear(classL)
	tot := 0
	for k := 0; k <= len(ths); k++ {
		for c := 0; c < kcls; c++ {
			tot += h[k*kcls+c]
			totClass[c] += h[k*kcls+c]
		}
	}
	nL := 0
	minLeaf := b.t.cfg.MinLeaf
	for k := 0; k < len(ths); k++ {
		for c := 0; c < kcls; c++ {
			nL += h[k*kcls+c]
			classL[c] += h[k*kcls+c]
		}
		nR := tot - nL
		if nL < minLeaf || nR < minLeaf {
			continue
		}
		g := parent - gini(classL, nL, nil) - gini(totClass, nR, classL)
		if g > gain {
			gain, bin, ok = g, k, true
		}
	}
	return gain, bin, ok
}

// gini is the count-scaled Gini impurity of n samples with class counts
// counts, or counts minus sub when sub is non-nil.
func gini(counts []int, n int, sub []int) float64 {
	s := 0.0
	fn := float64(n)
	for c := range counts {
		var k int
		if sub == nil {
			k = counts[c]
		} else {
			k = counts[c] - sub[c]
		}
		p := float64(k) / fn
		s += p * p
	}
	return (1 - s) * fn
}
