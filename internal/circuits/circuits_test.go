package circuits

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tevot/internal/netlist"
)

// evalFU runs a functional-unit netlist on an operand pair and decodes
// the 32-bit result.
func evalFU(t *testing.T, nl *netlist.Netlist, a, b uint32) uint32 {
	t.Helper()
	out, err := nl.Eval(EncodeOperands(a, b))
	if err != nil {
		t.Fatal(err)
	}
	return DecodeResult(out)
}

// evalN evaluates a netlist with two width-bit operands (generic widths,
// used by the exhaustive small-adder tests).
func evalN(t *testing.T, nl *netlist.Netlist, width int, a, b uint64) uint64 {
	t.Helper()
	in := make([]bool, 2*width)
	for i := 0; i < width; i++ {
		in[i] = a>>i&1 == 1
		in[width+i] = b>>i&1 == 1
	}
	out, err := nl.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	var v uint64
	for i, bit := range out {
		if bit {
			v |= 1 << i
		}
	}
	return v
}

func TestRippleAdderExhaustive4(t *testing.T) {
	nl := NewRippleAdder(4)
	for a := uint64(0); a < 16; a++ {
		for b := uint64(0); b < 16; b++ {
			if got, want := evalN(t, nl, 4, a, b), (a+b)&0xf; got != want {
				t.Fatalf("rca4: %d+%d = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestCLAAdderExhaustive6(t *testing.T) {
	nl := NewCLAAdder(6) // exercises a full group and a partial group
	for a := uint64(0); a < 64; a++ {
		for b := uint64(0); b < 64; b++ {
			if got, want := evalN(t, nl, 6, a, b), (a+b)&0x3f; got != want {
				t.Fatalf("cla6: %d+%d = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestTruncMultiplierExhaustive5(t *testing.T) {
	nl := NewTruncMultiplier(5)
	for a := uint64(0); a < 32; a++ {
		for b := uint64(0); b < 32; b++ {
			if got, want := evalN(t, nl, 5, a, b), (a*b)&0x1f; got != want {
				t.Fatalf("mul5: %d*%d = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestFullMultiplierExhaustive5(t *testing.T) {
	nl := NewFullMultiplier(5)
	for a := uint64(0); a < 32; a++ {
		for b := uint64(0); b < 32; b++ {
			if got, want := evalN(t, nl, 5, a, b), a*b; got != want {
				t.Fatalf("mulfull5: %d*%d = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestIntAdd32Random(t *testing.T) {
	nl := NewRippleAdder(32)
	f := func(a, b uint32) bool { return evalFU(t, nl, a, b) == a+b }
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCLAAdd32Random(t *testing.T) {
	nl := NewCLAAdder(32)
	f := func(a, b uint32) bool { return evalFU(t, nl, a, b) == a+b }
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIntMul32Random(t *testing.T) {
	nl := NewTruncMultiplier(32)
	f := func(a, b uint32) bool { return evalFU(t, nl, a, b) == a*b }
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// fpCases are deliberately nasty operand pairs for the FP datapaths.
func fpCases() [][2]uint32 {
	f := BitsFromFloat32
	return [][2]uint32{
		{f(1), f(1)}, {f(1.5), f(-1.5)}, {f(1e30), f(-1e30)},
		{f(3.14159), f(2.71828)}, {f(1e-38), f(1e-38)},
		{f(1e38), f(1e38)},                       // overflow
		{f(1.1754944e-38), f(1.1754944e-38)},     // min normal
		{0, 0}, {1 << 31, 0}, {f(-0.5), 1 << 31}, // signed zeros
		{f(1), 1}, {1, 2}, // subnormal operands (flushed)
		{f(8388608), f(1)},   // 2^23 + 1: alignment edge
		{f(16777216), f(1)},  // 2^24 + 1: aligned bit lost
		{f(1), f(1.0000001)}, // near-total cancellation (sub)
		{f(-1), f(1.0000001)},
		{f(65504), f(0.00003051)},
		{0x7f800000, f(1)}, // +Inf encoding flows through
		{0x7fc00000, f(1)}, // NaN encoding flows through as a value
		{f(2), f(-2)},      // exact cancellation
		{f(0.75), f(0.25)}, {f(-0.75), f(0.25)},
	}
}

func TestFPAdderAgainstGolden(t *testing.T) {
	nl := NewFPAdder()
	for _, c := range fpCases() {
		got := evalFU(t, nl, c[0], c[1])
		want := FPAdd32.Golden(c[0], c[1])
		if got != want {
			t.Errorf("fp_add(%#08x, %#08x) = %#08x, want %#08x (%v + %v)",
				c[0], c[1], got, want,
				Float32FromBits(c[0]), Float32FromBits(c[1]))
		}
	}
}

func TestFPMultiplierAgainstGolden(t *testing.T) {
	nl := NewFPMultiplier()
	for _, c := range fpCases() {
		got := evalFU(t, nl, c[0], c[1])
		want := FPMul32.Golden(c[0], c[1])
		if got != want {
			t.Errorf("fp_mul(%#08x, %#08x) = %#08x, want %#08x (%v * %v)",
				c[0], c[1], got, want,
				Float32FromBits(c[0]), Float32FromBits(c[1]))
		}
	}
}

func TestFPAdderRandomBitExact(t *testing.T) {
	nl := NewFPAdder()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		a, b := rng.Uint32(), rng.Uint32()
		got := evalFU(t, nl, a, b)
		want := FPAdd32.Golden(a, b)
		if got != want {
			t.Fatalf("fp_add(%#08x, %#08x) = %#08x, want %#08x", a, b, got, want)
		}
	}
}

func TestFPMultiplierRandomBitExact(t *testing.T) {
	nl := NewFPMultiplier()
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 200; i++ {
		a, b := rng.Uint32(), rng.Uint32()
		got := evalFU(t, nl, a, b)
		want := FPMul32.Golden(a, b)
		if got != want {
			t.Fatalf("fp_mul(%#08x, %#08x) = %#08x, want %#08x", a, b, got, want)
		}
	}
}

func TestAllFUsBuildAndValidate(t *testing.T) {
	for _, fu := range AllFUs {
		nl, err := fu.Build()
		if err != nil {
			t.Fatalf("%v: %v", fu, err)
		}
		if err := nl.Validate(); err != nil {
			t.Fatalf("%v: %v", fu, err)
		}
		if got := len(nl.PrimaryInputs); got != OperandBits {
			t.Errorf("%v: %d primary inputs, want %d", fu, got, OperandBits)
		}
		if got := len(nl.PrimaryOutputs); got != ResultBits {
			t.Errorf("%v: %d primary outputs, want %d", fu, got, ResultBits)
		}
		d, err := nl.Depth()
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%v: %d gates, depth %d", fu, nl.NumGates(), d)
		if nl.NumGates() < 100 {
			t.Errorf("%v: implausibly small netlist (%d gates)", fu, nl.NumGates())
		}
	}
}

// TestFURandomAgainstGolden sweeps all four FUs with the same operand
// stream against their golden models.
func TestFURandomAgainstGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, fu := range AllFUs {
		nl, err := fu.Build()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			a, b := rng.Uint32(), rng.Uint32()
			got := evalFU(t, nl, a, b)
			if want := fu.Golden(a, b); got != want {
				t.Fatalf("%v(%#08x, %#08x) = %#08x, want %#08x", fu, a, b, got, want)
			}
		}
	}
}

func TestParseFU(t *testing.T) {
	for _, fu := range AllFUs {
		got, err := ParseFU(fu.String())
		if err != nil || got != fu {
			t.Errorf("ParseFU(%q) = %v, %v", fu.String(), got, err)
		}
	}
	if _, err := ParseFU("BOGUS"); err == nil {
		t.Error("ParseFU accepted unknown name")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(a, b uint32) bool {
		bits := EncodeOperands(a, b)
		return DecodeResult(bits[:32]) == a && DecodeResult(bits[32:]) == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAdderDepthOrdering(t *testing.T) {
	rca := NewRippleAdder(32)
	cla := NewCLAAdder(32)
	dr, err := rca.Depth()
	if err != nil {
		t.Fatal(err)
	}
	dc, err := cla.Depth()
	if err != nil {
		t.Fatal(err)
	}
	if dc >= dr {
		t.Errorf("CLA depth (%d) should be below ripple depth (%d)", dc, dr)
	}
}

// TestShifterBlocks exercises the variable shifters through a dedicated
// tiny netlist, exhaustively.
func TestShifterBlocks(t *testing.T) {
	build := func(left bool) *netlist.Netlist {
		b := netlist.NewBuilder("shift")
		x := Bus(b.InputBus("x", 8))
		amt := Bus(b.InputBus("amt", 3))
		var o Bus
		if left {
			o = shiftLeftVar(b, x, amt)
		} else {
			o = shiftRightVar(b, x, amt)
		}
		b.OutputBus(o)
		return b.MustBuild()
	}
	right := build(false)
	left := build(true)
	for x := uint64(0); x < 256; x++ {
		for s := uint64(0); s < 8; s++ {
			inBits := make([]bool, 11)
			for i := 0; i < 8; i++ {
				inBits[i] = x>>i&1 == 1
			}
			for i := 0; i < 3; i++ {
				inBits[8+i] = s>>i&1 == 1
			}
			outR, err := right.Eval(inBits)
			if err != nil {
				t.Fatal(err)
			}
			outL, err := left.Eval(inBits)
			if err != nil {
				t.Fatal(err)
			}
			var vr, vl uint64
			for i, bit := range outR {
				if bit {
					vr |= 1 << i
				}
			}
			for i, bit := range outL {
				if bit {
					vl |= 1 << i
				}
			}
			if vr != x>>s {
				t.Fatalf("shr: %d>>%d = %d, want %d", x, s, vr, x>>s)
			}
			if vl != (x<<s)&0xff {
				t.Fatalf("shl: %d<<%d = %d, want %d", x, s, vl, (x<<s)&0xff)
			}
		}
	}
}

// TestLZCBlock exhaustively checks the leading-zero counter on 16 bits.
func TestLZCBlock(t *testing.T) {
	b := netlist.NewBuilder("lzc16")
	x := Bus(b.InputBus("x", 16))
	c := lzc(b, x)
	b.OutputBus(c)
	nl := b.MustBuild()
	for v := uint64(1); v < 1<<16; v++ {
		in := make([]bool, 16)
		for i := 0; i < 16; i++ {
			in[i] = v>>i&1 == 1
		}
		out, err := nl.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		var got uint64
		for i, bit := range out {
			if bit {
				got |= 1 << i
			}
		}
		want := uint64(0)
		for i := 15; i >= 0 && v>>i&1 == 0; i-- {
			want++
		}
		if got != want {
			t.Fatalf("lzc(%#04x) = %d, want %d", v, got, want)
		}
	}
}
