package fpref

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func f32(bits uint32) float32 { return math.Float32frombits(bits) }
func b32(f float32) uint32    { return math.Float32bits(f) }
func isFinite(f float32) bool { return !math.IsInf(float64(f), 0) && !math.IsNaN(float64(f)) }
func isNormal(bits uint32) bool {
	e := bits >> 23 & 0xff
	return e != 0 && e != 255
}

// TestAddExactCases: when the IEEE sum is exactly representable (no
// rounding), the truncating adder must agree with float32 arithmetic.
func TestAddExactCases(t *testing.T) {
	cases := [][2]float32{
		{1, 1}, {1, 2}, {1.5, 2.5}, {0.5, 0.25},
		{1024, 512}, {3, -1}, {-2, -6}, {7, -7},
		{1, 0}, {0, 0}, {-5.5, 0}, {0.125, 0.375},
		{1e10, 1e10}, {-1e-10, 1e-10},
	}
	for _, c := range cases {
		want := c[0] + c[1]
		got := f32(Add(b32(c[0]), b32(c[1])))
		if got != want {
			// -0 vs +0: our contract produces +0 on exact cancellation.
			if want == 0 && got == 0 {
				continue
			}
			t.Errorf("Add(%v, %v) = %v, want %v", c[0], c[1], got, want)
		}
	}
}

func TestMulExactCases(t *testing.T) {
	cases := [][2]float32{
		{1, 1}, {2, 3}, {1.5, 2}, {0.5, 0.5},
		{-4, 0.25}, {-3, -3}, {1024, 1024},
		{7, 0}, {0, -7}, {1, -1},
	}
	for _, c := range cases {
		want := c[0] * c[1]
		got := f32(Mul(b32(c[0]), b32(c[1])))
		if got != want {
			if want == 0 && got == 0 {
				continue
			}
			t.Errorf("Mul(%v, %v) = %v, want %v", c[0], c[1], got, want)
		}
	}
}

// TestAddTruncationBound: without guard/round/sticky bits, alignment
// truncation loses at most one unit in the last place of the LARGER
// operand (not of the result — after cancellation that can be many result
// ulps), plus one result ulp from the final truncation.
func TestAddTruncationBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		a := randNormal(rng)
		b := randNormal(rng)
		ref := f32(a) + f32(b)
		if !isFinite(ref) || !isNormal(b32(ref)) {
			continue
		}
		got := f32(Add(a, b))
		if got == ref {
			continue
		}
		bound := ulp32(f32(a)) + ulp32(f32(b)) + ulp32(ref)
		if diff := math.Abs(float64(got - ref)); diff > bound {
			t.Fatalf("Add(%x,%x): got %v, reference %v, diff %g > bound %g",
				a, b, got, ref, diff, bound)
		}
	}
}

func TestMulWithinOneULP(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		a := randNormal(rng)
		b := randNormal(rng)
		ref := f32(a) * f32(b)
		if !isFinite(ref) || !isNormal(b32(ref)) {
			continue
		}
		got := f32(Mul(a, b))
		if got == ref {
			continue
		}
		ulp := ulp32(ref)
		if diff := math.Abs(float64(got - ref)); diff > 2*ulp {
			t.Fatalf("Mul(%x,%x): got %v, reference %v, diff %g > 2 ulp (%g)",
				a, b, got, ref, diff, ulp)
		}
	}
}

// ulp32 returns the unit-in-the-last-place spacing of a normal float32.
func ulp32(f float32) float64 {
	e := int(b32(f) >> 23 & 0xff)
	return math.Ldexp(1, e-127-23)
}

// randNormal returns a random normal (non-subnormal, non-inf/nan) float32
// encoding with moderate exponent so sums stay finite.
func randNormal(rng *rand.Rand) uint32 {
	sign := uint32(rng.Intn(2)) << 31
	exp := uint32(64 + rng.Intn(128)) // well inside the finite range
	man := uint32(rng.Intn(1 << 23))
	return sign | exp<<23 | man
}

func TestAddCommutative(t *testing.T) {
	f := func(a, b uint32) bool { return Add(a, b) == Add(b, a) }
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestMulCommutative(t *testing.T) {
	f := func(a, b uint32) bool { return Mul(a, b) == Mul(b, a) }
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestAddIdentity(t *testing.T) {
	f := func(a uint32) bool {
		if e := a >> 23 & 0xff; e == 0 || e == 255 { // flushed or saturating encodings
			return true
		}
		return Add(a, 0) == a && Add(0, a) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestMulByOne(t *testing.T) {
	one := b32(1)
	f := func(a uint32) bool {
		e := a >> 23 & 0xff
		if e == 0 || e == 255 { // flushed or non-finite encodings
			return true
		}
		return Mul(a, one) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestAddCancellationGivesPlusZero(t *testing.T) {
	a := b32(3.5)
	na := b32(-3.5)
	if got := Add(a, na); got != 0 {
		t.Fatalf("Add(x, -x) = %#08x, want +0", got)
	}
}

func TestMulSignedZero(t *testing.T) {
	if got := Mul(b32(-2), 0); got != 1<<31 {
		t.Fatalf("Mul(-2, +0) = %#08x, want -0", got)
	}
	if got := Mul(b32(2), 1<<31); got != 1<<31 {
		t.Fatalf("Mul(2, -0) = %#08x, want -0", got)
	}
}

func TestSubnormalsFlushToZero(t *testing.T) {
	sub := uint32(1) // smallest positive subnormal
	if got := Add(sub, sub); got != 0 {
		t.Fatalf("Add(subnormal, subnormal) = %#08x, want +0", got)
	}
	if got := Mul(sub, b32(1)); got != 0 {
		t.Fatalf("Mul(subnormal, 1) = %#08x, want +0", got)
	}
}

func TestOverflowSaturatesToInf(t *testing.T) {
	big := b32(math.MaxFloat32)
	if got := f32(Add(big, big)); !math.IsInf(float64(got), 1) {
		t.Fatalf("Add(max, max) = %v, want +Inf", got)
	}
	if got := f32(Mul(big, big)); !math.IsInf(float64(got), 1) {
		t.Fatalf("Mul(max, max) = %v, want +Inf", got)
	}
	negBig := b32(-math.MaxFloat32)
	if got := f32(Mul(big, negBig)); !math.IsInf(float64(got), -1) {
		t.Fatalf("Mul(max, -max) = %v, want -Inf", got)
	}
}

func TestUnderflowFlushesToSignedZero(t *testing.T) {
	tiny := uint32(1 << 23) // smallest normal, exponent 1
	if got := Mul(tiny, tiny); got != 0 {
		t.Fatalf("Mul(minNormal, minNormal) = %#08x, want +0", got)
	}
	negTiny := tiny | 1<<31
	if got := Mul(negTiny, tiny); got != 1<<31 {
		t.Fatalf("Mul(-minNormal, minNormal) = %#08x, want -0", got)
	}
}

// TestAddMagnitudeOrdering: result of adding same-sign operands is at
// least as large as each operand (no rounding can shrink it below the
// larger input under truncation toward zero... truncation keeps the
// result >= the larger magnitude operand).
func TestAddMonotoneMagnitude(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		a := randNormal(rng) &^ uint32(1<<31)
		b := randNormal(rng) &^ uint32(1<<31)
		s := Add(a, b)
		if s>>23&0xff == 255 {
			continue // saturated
		}
		if f32(s) < f32(a) || f32(s) < f32(b) {
			t.Fatalf("Add(%v,%v) = %v shrank below an operand", f32(a), f32(b), f32(s))
		}
	}
}
