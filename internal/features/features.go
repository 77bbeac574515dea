// Package features builds TEVoT's "variability feature" vectors: the
// concatenation {x[t], x[t-1], V, T} of the paper's Eq. 3 — the current
// 64-bit operand pair, the previous operand pair (path sensitization
// depends on the state the previous vector left behind), and the
// operating condition. For a 2×32-bit functional unit the vector has
// 64 + 64 + 2 = 130 dimensions. Training and Table II's baselines take
// it as 130 float64s (Vector); prediction takes the same row packed
// into 32 bytes (PackInto), which the compiled forest walks directly.
package features

import (
	"fmt"

	"tevot/internal/cells"
	"tevot/internal/ml"
	"tevot/internal/workload"
)

// Dim is the feature dimension with history (the full TEVoT feature).
const Dim = 130

// DimNH is the feature dimension without history (the TEVoT-NH ablation).
const DimNH = 66

// Vector builds the 130-dimensional TEVoT feature for one cycle: the
// current pair's 64 bits, the previous pair's 64 bits, then V and T.
func Vector(corner cells.Corner, cur, prev workload.OperandPair) []float64 {
	x := make([]float64, Dim)
	VectorInto(x, corner, cur, prev)
	return x
}

// VectorInto is Vector writing into the caller-provided dst (which must
// have Dim entries), so bulk feature extraction can fill rows of one
// contiguous backing array without per-row allocations.
func VectorInto(dst []float64, corner cells.Corner, cur, prev workload.OperandPair) {
	fillBits(dst[0:64], cur)
	fillBits(dst[64:128], prev)
	dst[128] = corner.V
	dst[129] = corner.T
}

// VectorNH builds the 66-dimensional history-free feature (TEVoT-NH):
// current pair bits, V, T.
func VectorNH(corner cells.Corner, cur workload.OperandPair) []float64 {
	x := make([]float64, DimNH)
	VectorNHInto(x, corner, cur)
	return x
}

// VectorNHInto is VectorNH writing into the caller-provided dst (which
// must have DimNH entries).
func VectorNHInto(dst []float64, corner cells.Corner, cur workload.OperandPair) {
	fillBits(dst[0:64], cur)
	dst[64] = corner.V
	dst[65] = corner.T
}

// PackedBits and PackedBitsNH are the bit-feature counts of the packed
// layouts (the nbits of ml.RandomForest.PredictPackedInto): with
// history, and without.
const (
	PackedBits   = 128
	PackedBitsNH = 64
)

// PackInto writes Vector's feature row in the packed layout: bit f of
// dst.Bits is VectorInto's feature f for f < PackedBits (x[t] in word
// 0, x[t-1] in word 1), and dst.Tail holds V and T.
func PackInto(dst *ml.PackedRow, corner cells.Corner, cur, prev workload.OperandPair) {
	*dst = ml.PackedRow{
		Bits: [2]uint64{packBits(cur), packBits(prev)},
		Tail: [2]float64{corner.V, corner.T},
	}
}

// PackNHInto is PackInto for the history-free layout: VectorNHInto's
// bit features in word 0, V and T in the tail.
func PackNHInto(dst *ml.PackedRow, corner cells.Corner, cur workload.OperandPair) {
	*dst = ml.PackedRow{
		Bits: [2]uint64{packBits(cur)},
		Tail: [2]float64{corner.V, corner.T},
	}
}

// packBits is fillBits as one word: A's bits, then B's.
func packBits(p workload.OperandPair) uint64 {
	return uint64(p.A) | uint64(p.B)<<32
}

func fillBits(dst []float64, p workload.OperandPair) {
	for i := 0; i < 32; i++ {
		dst[i] = float64(p.A >> i & 1)
		dst[32+i] = float64(p.B >> i & 1)
	}
}

// Names returns human-readable labels for the 130 feature dimensions,
// in Vector's layout: x[t] operand bits, x[t-1] operand bits, V, T.
func Names() []string {
	names := make([]string, Dim)
	for i := 0; i < 32; i++ {
		names[i] = fmt.Sprintf("x[t].a%d", i)
		names[32+i] = fmt.Sprintf("x[t].b%d", i)
		names[64+i] = fmt.Sprintf("x[t-1].a%d", i)
		names[96+i] = fmt.Sprintf("x[t-1].b%d", i)
	}
	names[128] = "V"
	names[129] = "T"
	return names
}

// NamesNH is Names for the history-free layout.
func NamesNH() []string {
	names := make([]string, DimNH)
	for i := 0; i < 32; i++ {
		names[i] = fmt.Sprintf("x[t].a%d", i)
		names[32+i] = fmt.Sprintf("x[t].b%d", i)
	}
	names[64] = "V"
	names[65] = "T"
	return names
}

// Pairs recovers the operand pairs encoded in a full feature vector
// (inverse of Vector), used in tests as a round-trip property.
func Pairs(x []float64) (cur, prev workload.OperandPair, corner cells.Corner) {
	cur = unfillBits(x[0:64])
	prev = unfillBits(x[64:128])
	corner = cells.Corner{V: x[128], T: x[129]}
	return cur, prev, corner
}

func unfillBits(src []float64) workload.OperandPair {
	var p workload.OperandPair
	for i := 0; i < 32; i++ {
		if src[i] != 0 {
			p.A |= 1 << i
		}
		if src[32+i] != 0 {
			p.B |= 1 << i
		}
	}
	return p
}
