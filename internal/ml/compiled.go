package ml

import (
	"fmt"
	"runtime"
	"sync"
)

// PackedRow is a feature row the compiled forest walks without
// expanding it to floats: features below nbits are 0/1 values stored
// as bits (feature f is bit f%64 of Bits[f/64]), and feature nbits+k
// is Tail[k]. TEVoT's layouts (package features) put the current and
// previous operand pairs in Bits and V, T in Tail: 32 bytes where the
// float row takes 1040.
type PackedRow struct {
	Bits [2]uint64
	Tail [2]float64
}

// cnode is one 16-byte compiled node. A split sends a row to kid when
// x[feat] <= v and to kid+1 otherwise (siblings are adjacent); a leaf
// has feat < 0 and predicts v.
type cnode struct {
	v    float64
	feat int32
	kid  int32
}

// compiledForest is a fitted forest's trees in the form every predict
// entry point walks, and the only form a RandomForest keeps: each
// tree's nodes in their own exact-size slice, laid out breadth-first
// from the root at 0 so the levels every walk passes through sit
// together. Float rows and packed rows walk the same nodes.
type compiledForest struct {
	trees   [][]cnode
	mode    Mode
	classes int // classification: max class count over trees
}

// layout returns the tree in nodes (root at 0, children after their
// parent) as compiled nodes, breadth-first from the root. It keeps the
// nodes reachable from the root (a fitted tree has no others) with
// their thresholds and leaf values; only their order and child links
// change. Until slot q is laid out, its kid holds the index in nodes of
// the node it receives.
func layout(nodes []node) []cnode {
	out := make([]cnode, 1, len(nodes))
	for q := 0; q < len(out); q++ {
		n := &nodes[out[q].kid]
		if n.feature < 0 {
			out[q] = cnode{v: n.value, feat: -1}
			continue
		}
		kid := int32(len(out))
		out = append(out, cnode{kid: n.left}, cnode{kid: n.right})
		out[q] = cnode{v: n.threshold, feat: n.feature, kid: kid}
	}
	return out
}

// lanes is how many rows leaves walks through a tree in lockstep.
const lanes = 8

// leavesFloat adds the value of the leaf the tree of nodes reaches for
// each float row X[k] to acc[k]. It walks up to lanes rows together, one
// level per pass, so their node loads are independent and overlap. The
// comparison is the pointer tree's (x <= v goes left), so a NaN feature
// goes right in both.
func leavesFloat(nodes []cnode, X [][]float64, acc []float64) {
	for lo := 0; lo < len(X); lo += lanes {
		g := X[lo:min(lo+lanes, len(X))]
		var at [lanes]int32
		for live := true; live; {
			live = false
			for k, x := range g {
				n := &nodes[at[k]]
				if n.feat < 0 {
					continue
				}
				live = true
				i := n.kid
				if !(x[n.feat] <= n.v) {
					i++
				}
				at[k] = i
			}
		}
		for k := range g {
			acc[lo+k] += nodes[at[k]].v
		}
	}
}

// leavesPacked is leavesFloat over packed rows with nbits bit
// features. A bit feature goes right exactly when it is set, which is
// x > v for a 0/1 value whenever v lies in [0, 1) (checkPacked).
func leavesPacked(nodes []cnode, rows []PackedRow, nbits int32, acc []float64) {
	for lo := 0; lo < len(rows); lo += lanes {
		g := rows[lo:min(lo+lanes, len(rows))]
		var at [lanes]int32
		for live := true; live; {
			live = false
			for k := range g {
				n := &nodes[at[k]]
				f := n.feat
				if f < 0 {
					continue
				}
				live = true
				i := n.kid
				if f < nbits {
					i += int32(g[k].Bits[f>>6] >> (f & 63) & 1)
				} else if !(g[k].Tail[f-nbits] <= n.v) {
					i++
				}
				at[k] = i
			}
		}
		for k := range g {
			acc[lo+k] += nodes[at[k]].v
		}
	}
}

// checkPacked verifies that leavesPacked with nbits bit features is
// exact for every row a PackedRow can hold: each split on a bit feature has its
// threshold in [0, 1), and each split feature lies inside the row.
func (cf *compiledForest) checkPacked(nbits int) error {
	if err := checkBits(nbits); err != nil {
		return err
	}
	width := int32(nbits + len(PackedRow{}.Tail))
	for ti, nodes := range cf.trees {
		for i, n := range nodes {
			switch {
			case n.feat < 0:
			case n.feat >= width:
				return fmt.Errorf("ml: tree %d node %d splits feature %d, outside a packed row of %d features", ti, i, n.feat, width)
			case n.feat < int32(nbits) && !(n.v >= 0 && n.v < 1):
				return fmt.Errorf("ml: tree %d node %d splits bit feature %d at %v, outside [0, 1)", ti, i, n.feat, n.v)
			}
		}
	}
	return nil
}

// checkBits refuses a bit-feature count a PackedRow cannot hold.
func checkBits(nbits int) error {
	if nbits < 0 || nbits > 64*len(PackedRow{}.Bits) {
		return fmt.Errorf("ml: packed rows hold at most %d bit features, got %d", 64*len(PackedRow{}.Bits), nbits)
	}
	return nil
}

// rowSet is the rows of one fit or predict call: packed rows with nbits
// bit features when packed is non-nil, else float rows. A fit's float
// rows have their leading 0/1 columns as bit features (floatRows); a
// predict call's have none.
type rowSet struct {
	float  [][]float64
	packed []PackedRow
	nbits  int32
	// floatBits[i] is float row i's bit features as words (fits only).
	floatBits [][2]uint64
}

func (s rowSet) len() int {
	if s.packed != nil {
		return len(s.packed)
	}
	return len(s.float)
}

// width is the feature count of a row of the non-empty s.
func (s rowSet) width() int {
	if s.packed != nil {
		return int(s.nbits) + len(PackedRow{}.Tail)
	}
	return len(s.float[0])
}

// value is float feature f (f >= nbits) of row i.
func (s rowSet) value(i, f int) float64 {
	if s.packed != nil {
		return s.packed[i].Tail[f-int(s.nbits)]
	}
	return s.float[i][f]
}

// floatRows is the fit rowSet of float rows X. Its bit features are
// the leading columns, up to the bits a PackedRow holds, in which every
// row holds 0 or 1. Fitting such a column as a bit grows the trees that
// fitting it as a float does: its one candidate is the midpoint 0.5, and
// a row's bucket among that candidate is its value.
func floatRows(X [][]float64) rowSet {
	nbits := 64 * len(PackedRow{}.Bits)
	for _, x := range X {
		nbits = min(nbits, len(x))
		for f, v := range x[:nbits] {
			if v != 0 && v != 1 {
				nbits = f
				break
			}
		}
	}
	s := rowSet{float: X, nbits: int32(nbits)}
	if nbits > 0 {
		s.floatBits = make([][2]uint64, len(X))
		for i, x := range X {
			for f, v := range x[:nbits] {
				if v == 1 {
					s.floatBits[i][f>>6] |= 1 << (f & 63)
				}
			}
		}
	}
	return s
}

// bits is the words of row i's bit features. Bits at and above nbits
// are unspecified.
func (s rowSet) bits(i int) [2]uint64 {
	if s.packed != nil {
		return s.packed[i].Bits
	}
	return s.floatBits[i]
}

// slice is the rows lo..hi-1 of s.
func (s rowSet) slice(lo, hi int) rowSet {
	if s.packed != nil {
		s.packed = s.packed[lo:hi]
	} else {
		s.float = s.float[lo:hi]
	}
	return s
}

// leaves adds the value of the leaf the tree of nodes reaches for each
// row of s to acc.
func leaves(nodes []cnode, s rowSet, acc []float64) {
	if s.packed != nil {
		leavesPacked(nodes, s.packed, s.nbits, acc)
	} else {
		leavesFloat(nodes, s.float, acc)
	}
}

// walkBlock is how many rows a batch carries through each tree before
// moving to the next, so the tree's upper levels stay in cache.
const walkBlock = 32

// maxStackClasses bounds the classes whose per-block vote counts
// predictRange keeps on the stack; more classes take a heap scratch per
// call, still amortized over the call's rows.
const maxStackClasses = 8

// predictRange predicts the rows of s into out, tree-major over blocks
// of walkBlock rows. Regression adds the trees in index order from 0.0
// for every row, then divides by their count; classification takes the
// majority vote, the lowest class winning ties. It allocates nothing
// for regression, or classification with at most maxStackClasses
// classes.
func (cf *compiledForest) predictRange(s rowSet, out []float64) {
	n := s.len()
	if cf.mode == Regression {
		for lo := 0; lo < n; lo += walkBlock {
			hi := min(lo+walkBlock, n)
			sum := out[lo:hi]
			clear(sum)
			for _, nodes := range cf.trees {
				leaves(nodes, s.slice(lo, hi), sum)
			}
			for j := range sum {
				sum[j] /= float64(len(cf.trees))
			}
		}
		return
	}
	nc := cf.classes
	var stack [walkBlock * maxStackClasses]int
	votes := stack[:]
	if nc > maxStackClasses {
		votes = make([]int, walkBlock*nc)
	}
	var leaf [walkBlock]float64
	for lo := 0; lo < n; lo += walkBlock {
		hi := min(lo+walkBlock, n)
		v := votes[:(hi-lo)*nc]
		clear(v)
		for _, nodes := range cf.trees {
			l := leaf[:hi-lo]
			clear(l)
			leaves(nodes, s.slice(lo, hi), l)
			for j, c := range l {
				v[j*nc+int(c)]++
			}
		}
		for j := range out[lo:hi] {
			bestC, bestN := 0, -1
			for c, k := range v[j*nc : (j+1)*nc] {
				if k > bestN {
					bestC, bestN = c, k
				}
			}
			out[lo+j] = float64(bestC)
		}
	}
}

// minParallelRows is the smallest share of a batch worth a goroutine:
// fan-out only pays for itself once each worker has a few thousand
// tree walks to do, so smaller batches run inline.
const minParallelRows = 512

// predictBlocked is predictRange split into contiguous ranges on up to
// workers goroutines (0 means GOMAXPROCS), each at least
// minParallelRows rows; a batch too small to split runs inline.
func (cf *compiledForest) predictBlocked(s rowSet, out []float64, workers int) {
	n := s.len()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n/minParallelRows)
	if workers <= 1 {
		cf.predictRange(s, out)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			cf.predictRange(s.slice(lo, hi), out[lo:hi])
		}()
	}
	wg.Wait()
}
