// Package ml is the from-scratch supervised-learning library used to
// train TEVoT: CART decision trees, random forests (the paper's chosen
// model), k-nearest neighbors, ridge ("linear") regression, and an
// RBF-kernel SVM trained with SMO — the four methods compared in the
// paper's Table II — plus dataset utilities and metrics.
//
// All learners share the convention that feature vectors are []float64
// and labels are float64 (class labels are small non-negative integers
// stored in float64, exact below 2^53). The random forest also fits and
// predicts packed rows (PackedRow), whose 0/1 features are bits.
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

// bitThreshold is a bit feature's one split candidate: the midpoint of
// its two values, 0 and 1, which is what globalThresholds computes for
// a 0/1 column.
const bitThreshold = 0.5

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

// DecisionTree is a CART tree with binned split search. Bit features
// (a packed row's bits, a float row's leading 0/1 columns) are their
// own bins. Every other feature's split candidates are fixed once per
// fit (globalThresholds), and every distinct training row is binned
// once among them into a uint8 matrix. Each node then builds the
// histograms of its features and sweeps the candidates of each feature
// it examines from its histogram. Its 32-byte nodes are the builder's
// form, and the oracle the compiled walk is tested against: a
// RandomForest lays each tree out in 16-byte compiled nodes as soon as
// it is grown (layout) and keeps only those.
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

// Fit builds the tree on the given samples, fitting X's leading 0/1
// columns as bit features (floatRows). In Classification mode the
// labels must be small non-negative integers.
func (t *DecisionTree) Fit(X [][]float64, y []float64) error {
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	return t.fitIndices(floatRows(X), y, idx, new(fitScratch))
}

// fitIndices builds the tree on the rows of rs listed in idx (indices
// may repeat, as in a bootstrap sample), with its working buffers taken
// from s, which a forest worker reuses across the trees it fits. The
// idx slice is consumed. The tree grows in s's node scratch: t.nodes
// aliases it until the next fit on s.
func (t *DecisionTree) fitIndices(rs rowSet, y []float64, idx []int, s *fitScratch) error {
	if len(idx) == 0 || rs.len() == 0 {
		return fmt.Errorf("ml: empty training set")
	}
	if rs.len() != len(y) {
		return fmt.Errorf("ml: %d rows but %d labels", rs.len(), len(y))
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
	nf := rs.width()
	t.importance = make([]float64, nf)
	s.compact(idx, y)
	s.vals = resize(s.vals, len(s.rows))
	// The bound moves by under 1% between a forest's bootstraps, so with
	// headroom a worker sizes its node scratch once.
	if bound := t.maxNodes(len(s.rows), len(idx)); cap(s.nodes) < bound {
		s.nodes = make([]node, 0, bound+bound/8)
	}
	t.nodes = s.nodes[:0]
	b := &treeBuilder{
		t:     t,
		y:     s.y,
		nf:    nf,
		nbits: int(rs.nbits),
		rng:   rand.New(rand.NewSource(t.cfg.Seed)),
		ths:   globalThresholds(rs, s.rows, s.vals),
		s:     s,
	}
	s.reset(rs, b.ths, t.classes)
	b.grow(idx, 0)
	return nil
}

// maxNodes bounds the nodes of a tree over n samples holding d distinct
// rows. Every split sends each distinct row, with all its copies, to one
// side and leaves both sides at least MinLeaf samples, so the leaves
// partition the distinct rows: at most d of them, at most n/MinLeaf, and
// at most 2^MaxDepth. A binary tree with L leaves has 2L-1 nodes, so
// grow's appends never outgrow a node slice of that capacity.
func (t *DecisionTree) maxNodes(d, n int) int {
	leaves := min(d, max(1, n/t.cfg.MinLeaf))
	if md := t.cfg.MaxDepth; md > 0 && md < 62 {
		leaves = min(leaves, 1<<md)
	}
	return 2*leaves - 1
}

// globalThresholds computes the split candidates of every float
// feature of rs (feature rs.nbits+c is entry c) once from the training
// rows (each listed once: only the distinct values count): midpoints
// between consecutive distinct values when there are few, else quantile
// midpoints. One scratch buffer of len(rows) serves every feature — raw
// values, distinct values, and midpoints all share its storage — and
// only the final candidate list is copied out, exactly sized, because
// ths outlives this call. Each feature's candidates are non-decreasing.
func globalThresholds(rs rowSet, rows []int, scratch []float64) [][]float64 {
	nbits := int(rs.nbits)
	ths := make([][]float64, rs.width()-nbits)
	for c := range ths {
		vals := scratch[:0]
		for _, i := range rows {
			vals = append(vals, rs.value(i, nbits+c))
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
			ths[c] = strided
		} else {
			ths[c] = append([]float64(nil), mids...)
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

// fitScratch holds a tree fit's working buffers. RandomForest's fits
// give each of their workers one and reuse it for every tree the worker
// fits.
type fitScratch struct {
	// boot is a forest worker's bootstrap buffer, the idx of each tree
	// it fits; nodes holds the tree being grown (fitIndices).
	boot  []int
	nodes []node
	// pos maps a training row to its compact id; rows maps back, and y
	// holds the compact rows' labels. Only rows the tree trains on get
	// an id: a bootstrap of n draws holds about 0.63n distinct rows.
	// vals is globalThresholds' scratch.
	pos  []int
	rows []int
	y    []float64
	vals []float64
	// words[j][c] is word j of the bit features of compact row c. The
	// fill and the partition read only its bits below nbits.
	words [2][]uint64
	// bins is the row-major bin matrix of the float features over the
	// compact rows: bins[c*nt+k] is the bucket of feature nbits+k of row
	// rows[c] among the tree's candidates ths[k], for nt float features.
	bins []uint8
	// Histogram layout: bit feature f owns slots 2f (bit clear) and
	// 2f+1 (bit set); float feature nbits+k owns len(ths[k])+1
	// consecutive slots from off[k], one per bucket.
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

// reset lays out the histograms for rs's bit features and float
// candidates ths, copies the compact rows' bit words, and bins their
// float features. A row's bucket is the number of candidates strictly
// below its value, so bucket <= k exactly when the value is <= ths[k]
// (the candidates are non-decreasing). A bit's bucket is the bit: 0.5
// is its only candidate.
func (s *fitScratch) reset(rs rowSet, ths [][]float64, classes int) {
	nbits := int(rs.nbits)
	s.off = resize(s.off, len(ths))
	slots := 2 * nbits
	for k, th := range ths {
		s.off[k] = slots
		slots += len(th) + 1
	}
	s.all = resize(s.all, nbits+len(ths))
	for f := range s.all {
		s.all[f] = f
	}
	s.hist = resize(s.hist, slots)
	s.cls = resize(s.cls, slots*classes)
	s.totClass = resize(s.totClass, classes)
	s.classL = resize(s.classL, classes)
	if nbits > 0 {
		for j := range s.words {
			s.words[j] = resize(s.words[j], len(s.rows))
		}
		for c, r := range s.rows {
			w := rs.bits(r)
			s.words[0][c], s.words[1][c] = w[0], w[1]
		}
	}
	nt := len(ths)
	s.bins = resize(s.bins, len(s.rows)*nt)
	for c, r := range s.rows {
		row := s.bins[c*nt : c*nt+nt]
		for k, th := range ths {
			v := rs.value(r, nbits+k)
			b := 0
			for b < len(th) && v > th[b] {
				b++
			}
			row[k] = uint8(b)
		}
	}
}

// resize returns s with length n, reusing its storage when it is large
// enough. The contents are unspecified. A new slice has room for n/8
// more: the sizes that follow a tree's distinct rows move by under 1%
// between a forest's bootstraps, so a worker allocates them once.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/8)
	}
	return s[:n]
}

// treeBuilder grows one tree over compact row ids (fitScratch.compact).
// Features below nbits are bits (fitScratch.words); the others are
// float features with candidates ths[f-nbits] (fitScratch.bins).
type treeBuilder struct {
	t     *DecisionTree
	y     []float64 // labels by compact id
	nf    int
	nbits int
	rng   *rand.Rand
	ths   [][]float64 // global candidates of the float features
	s     *fitScratch
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

	lo := b.partition(idx, feat, bin)
	if lo < cfg.MinLeaf || len(idx)-lo < cfg.MinLeaf {
		return self
	}

	threshold := bitThreshold
	if feat >= b.nbits {
		threshold = b.ths[feat-b.nbits][bin]
	}
	left := b.grow(idx[:lo], depth+1)
	right := b.grow(idx[lo:], depth+1)
	t.nodes[self] = node{feature: int32(feat), threshold: threshold, left: left, right: right, value: leafValue}
	return self
}

// partition reorders idx in place so the rows that go left come first,
// and returns their count: a bit feature sends its clear rows left, a
// float feature the rows in buckets <= bin, which are exactly those
// with X <= ths[bin].
func (b *treeBuilder) partition(idx []int, feat, bin int) int {
	lo, hi := 0, len(idx)
	if feat < b.nbits {
		words, sh := b.s.words[feat>>6], uint(feat&63)
		for lo < hi {
			if words[idx[lo]]>>sh&1 == 0 {
				lo++
			} else {
				hi--
				idx[lo], idx[hi] = idx[hi], idx[lo]
			}
		}
		return lo
	}
	bins, nt, col, k := b.s.bins, len(b.ths), feat-b.nbits, uint8(bin)
	for lo < hi {
		if bins[idx[lo]*nt+col] <= k {
			lo++
		} else {
			hi--
			idx[lo], idx[hi] = idx[hi], idx[lo]
		}
	}
	return lo
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
// impurity decrease: it fills the histograms of every feature, then
// sweeps the examined features in featureOrder order, ties going to the
// first. A bit's two slots are a sweep's one-candidate case; a bit
// constant over the node leaves one of them empty, and the sweep's
// MinLeaf check refuses it. It returns the feature and the bucket k of
// its threshold (ths[k], or 0.5 for a bit, whose k is 0).
func (b *treeBuilder) bestSplit(idx []int, parent float64) (feat, bin int, gain float64) {
	regression := b.t.cfg.Mode == Regression
	if regression {
		b.fillRegression(idx)
	} else {
		b.fillGini(idx)
	}
	feat = -1
	for _, f := range b.featureOrder() {
		var g float64
		var k int
		var ok bool
		switch {
		case f < b.nbits:
			if regression {
				g, k, ok = b.sweepRegression(2*f, 1, parent)
			} else {
				g, k, ok = b.sweepGini(2*f, 1, parent)
			}
		case len(b.ths[f-b.nbits]) == 0:
			continue
		case regression:
			g, k, ok = b.sweepRegression(b.s.off[f-b.nbits], len(b.ths[f-b.nbits]), parent)
		default:
			g, k, ok = b.sweepGini(b.s.off[f-b.nbits], len(b.ths[f-b.nbits]), parent)
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
// every feature: one pass over idx per bit word (bit f adds to slot 2f
// when clear, 2f+1 when set), then one over the bins. Every (feature,
// bucket) slot adds the same labels in the same idx order as a scan of
// that feature alone would. Slots of features the node does not
// examine, and the one slot of a float feature without candidates, are
// filled and never read.
func (b *treeBuilder) fillRegression(idx []int) {
	hist, y := b.s.hist, b.y
	clear(hist)
	for j := 0; 64*j < b.nbits; j++ {
		first, last, words := 128*j, 2*min(b.nbits, 64*j+64), b.s.words[j]
		for _, i := range idx {
			v, w := y[i], words[i]
			for s := first; s < last; s += 2 {
				h := &hist[s+int(w&1)]
				w >>= 1
				h.n++
				h.sum += v
				h.sq += v * v
			}
		}
	}
	off, bins, nt := b.s.off, b.s.bins, len(b.ths)
	for _, i := range idx {
		v := y[i]
		for k, bk := range bins[i*nt : i*nt+nt] {
			h := &hist[off[k]+int(bk)]
			h.n++
			h.sum += v
			h.sq += v * v
		}
	}
}

// sweepRegression sweeps the histogram of the feature whose nth
// candidates own the slots from first (a bit's one candidate owns the
// slots from 2f), for its best SSE-decreasing threshold, and returns
// that threshold's bucket.
func (b *treeBuilder) sweepRegression(first, nth int, parent float64) (gain float64, bin int, ok bool) {
	h := b.s.hist[first : first+nth+1]
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
	for k := 0; k < nth; k++ {
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
	cls, y, kcls := b.s.cls, b.y, b.t.classes
	clear(cls)
	for j := 0; 64*j < b.nbits; j++ {
		first, last, words := 128*j, 2*min(b.nbits, 64*j+64), b.s.words[j]
		for _, i := range idx {
			w, c := words[i], int(y[i])
			for s := first; s < last; s += 2 {
				cls[(s+int(w&1))*kcls+c]++
				w >>= 1
			}
		}
	}
	off, bins, nt := b.s.off, b.s.bins, len(b.ths)
	for _, i := range idx {
		c := int(y[i])
		for k, bk := range bins[i*nt : i*nt+nt] {
			cls[(off[k]+int(bk))*kcls+c]++
		}
	}
}

// sweepGini is sweepRegression's classification counterpart. A bit
// feature's slots are from 2f, with one candidate.
func (b *treeBuilder) sweepGini(first, nth int, parent float64) (gain float64, bin int, ok bool) {
	kcls := b.t.classes
	h := b.s.cls[first*kcls : (first+nth+1)*kcls]
	totClass, classL := b.s.totClass, b.s.classL
	clear(totClass)
	clear(classL)
	tot := 0
	for k := 0; k <= nth; k++ {
		for c := 0; c < kcls; c++ {
			tot += h[k*kcls+c]
			totClass[c] += h[k*kcls+c]
		}
	}
	nL := 0
	minLeaf := b.t.cfg.MinLeaf
	for k := 0; k < nth; k++ {
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
