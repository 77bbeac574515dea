package features

import (
	"math"
	"testing"
	"testing/quick"

	"tevot/internal/cells"
	"tevot/internal/ml"
	"tevot/internal/workload"
)

func TestVectorLayout(t *testing.T) {
	c := cells.Corner{V: 0.85, T: 75}
	cur := workload.OperandPair{A: 1, B: 1 << 31}
	prev := workload.OperandPair{A: 0xFFFFFFFF, B: 0}
	x := Vector(c, cur, prev)
	if len(x) != Dim {
		t.Fatalf("len = %d, want %d", len(x), Dim)
	}
	if x[0] != 1 || x[1] != 0 {
		t.Error("cur.A LSB misplaced")
	}
	if x[63] != 1 {
		t.Error("cur.B MSB misplaced")
	}
	for i := 64; i < 96; i++ {
		if x[i] != 1 {
			t.Fatalf("prev.A bit %d should be 1", i-64)
		}
	}
	if x[128] != 0.85 || x[129] != 75 {
		t.Errorf("corner features = %v, %v", x[128], x[129])
	}
}

func TestVectorNHLayout(t *testing.T) {
	c := cells.Corner{V: 1.0, T: 0}
	x := VectorNH(c, workload.OperandPair{A: 3, B: 0})
	if len(x) != DimNH {
		t.Fatalf("len = %d, want %d", len(x), DimNH)
	}
	if x[0] != 1 || x[1] != 1 || x[2] != 0 {
		t.Error("cur.A bits misplaced")
	}
	if x[64] != 1.0 || x[65] != 0 {
		t.Errorf("corner features = %v, %v", x[64], x[65])
	}
}

// TestRoundTrip: Pairs(Vector(...)) is the identity — the involution
// property from the design doc.
func TestRoundTrip(t *testing.T) {
	f := func(a, b, pa, pb uint32, vi, ti uint8) bool {
		c := cells.Corner{V: 0.81 + float64(vi%20)*0.01, T: float64(ti%5) * 25}
		cur := workload.OperandPair{A: a, B: b}
		prev := workload.OperandPair{A: pa, B: pb}
		gc, gp, gcorner := Pairs(Vector(c, cur, prev))
		return gc == cur && gp == prev && gcorner.T == c.T &&
			gcorner.V > c.V-1e-9 && gcorner.V < c.V+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBitsAreBinary: every bit feature is exactly 0 or 1.
func TestBitsAreBinary(t *testing.T) {
	f := func(a, b, pa, pb uint32) bool {
		x := Vector(cells.Corner{V: 1, T: 25},
			workload.OperandPair{A: a, B: b}, workload.OperandPair{A: pa, B: pb})
		for i := 0; i < 128; i++ {
			if x[i] != 0 && x[i] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPackMatchesVector: the packed layouts hold exactly the float
// rows' features — bit f is feature f, the tail is V and T bit for bit
// — over random pairs and corners and the all-zero and all-one
// operands.
func TestPackMatchesVector(t *testing.T) {
	check := func(a, b, pa, pb uint32, v, temp float64) bool {
		c := cells.Corner{V: v, T: temp}
		cur := workload.OperandPair{A: a, B: b}
		prev := workload.OperandPair{A: pa, B: pb}
		var r ml.PackedRow
		x := Vector(c, cur, prev)
		PackInto(&r, c, cur, prev)
		if !packedEqual(r, x, PackedBits) {
			return false
		}
		x = VectorNH(c, cur)
		PackNHInto(&r, c, cur)
		return r.Bits[1] == 0 && packedEqual(r, x, PackedBitsNH)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
	const ones = 0xFFFFFFFF
	for _, c := range [][4]uint32{{0, 0, 0, 0}, {ones, ones, ones, ones}, {ones, 0, 0, ones}, {0x80000001, 1 << 31, 1, 0x55555555}} {
		if !check(c[0], c[1], c[2], c[3], 0.81, -40) {
			t.Errorf("operands %#x: packed row differs from the float row", c)
		}
	}
}

// packedEqual reports whether r holds float row x with nbits bit
// features.
func packedEqual(r ml.PackedRow, x []float64, nbits int) bool {
	if len(x) != nbits+len(r.Tail) {
		return false
	}
	for f := 0; f < nbits; f++ {
		if float64(r.Bits[f/64]>>(f%64)&1) != x[f] {
			return false
		}
	}
	for k, v := range r.Tail {
		if math.Float64bits(v) != math.Float64bits(x[nbits+k]) {
			return false
		}
	}
	return true
}
