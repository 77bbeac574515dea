package sim

import (
	"math/rand"
	"testing"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/netlist"
	"tevot/internal/sta"
)

func nominal() cells.Corner {
	m := cells.DefaultScaling()
	return cells.Corner{V: m.Vnom, T: m.Tnom}
}

// encN encodes a width-bit operand pair for the generic generators.
func encN(width int, a, b uint64) []bool {
	v := make([]bool, 2*width)
	for i := 0; i < width; i++ {
		v[i] = a>>i&1 == 1
		v[width+i] = b>>i&1 == 1
	}
	return v
}

func runnerFor(t *testing.T, nl *netlist.Netlist, corner cells.Corner) *Runner {
	t.Helper()
	delays, err := sta.GateDelays(nl, corner, sta.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(nl, delays)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestFig1DynamicDelay reproduces the paper's Fig. 1 phenomenon: the same
// circuit shows different dynamic delay depending on which input pair
// transitions. We use a 2-gate circuit o = x AND (NOT y): toggling x
// alone sensitizes a 1-gate path; toggling y sensitizes the 2-gate path.
func TestFig1DynamicDelay(t *testing.T) {
	b := netlist.NewBuilder("fig1")
	x := b.Input("x")
	y := b.Input("y")
	o := b.And(x, b.Not(y))
	b.Output(o)
	nl := b.MustBuild()
	r := runnerFor(t, nl, nominal())

	// y: 1 -> 0 with x = 1: output 0 -> 1 through INV then AND.
	res, err := r.Cycle([]bool{true, true}, []bool{true, false})
	if err != nil {
		t.Fatal(err)
	}
	longDelay := res.Delay
	if longDelay <= 0 {
		t.Fatal("expected output toggle through the long path")
	}

	// x: 0 -> 1 with y = 0: output 0 -> 1 through the AND only.
	res, err = r.Cycle([]bool{false, false}, []bool{true, false})
	if err != nil {
		t.Fatal(err)
	}
	shortDelay := res.Delay
	if shortDelay <= 0 {
		t.Fatal("expected output toggle through the short path")
	}
	if shortDelay >= longDelay {
		t.Fatalf("short path (%v ps) should beat long path (%v ps)", shortDelay, longDelay)
	}
}

// TestSettledMatchesZeroDelayEval: whatever the event interleaving, the
// final values must equal functional evaluation.
func TestSettledMatchesZeroDelayEval(t *testing.T) {
	for _, fu := range circuits.AllFUs {
		nl, err := fu.Build()
		if err != nil {
			t.Fatal(err)
		}
		r := runnerFor(t, nl, cells.Corner{V: 0.85, T: 50})
		rng := rand.New(rand.NewSource(int64(fu)))
		prev := circuits.EncodeOperands(rng.Uint32(), rng.Uint32())
		for i := 0; i < 25; i++ {
			a, b := rng.Uint32(), rng.Uint32()
			cur := circuits.EncodeOperands(a, b)
			res, err := r.Cycle(prev, cur)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := circuits.DecodeResult(res.Settled), fu.Golden(a, b); got != want {
				t.Fatalf("%v: settled %#08x, want %#08x", fu, got, want)
			}
			prev = cur
		}
	}
}

// TestDynamicDelayBoundedByStatic: the sensitized path can never exceed
// the STA critical path at the same corner.
func TestDynamicDelayBoundedByStatic(t *testing.T) {
	nl := circuits.NewRippleAdder(32)
	corner := cells.Corner{V: 0.81, T: 0}
	static, err := sta.Analyze(nl, corner, sta.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(nl, static.GateDelay)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	prev := circuits.EncodeOperands(rng.Uint32(), rng.Uint32())
	for i := 0; i < 200; i++ {
		cur := circuits.EncodeOperands(rng.Uint32(), rng.Uint32())
		res, err := r.Cycle(prev, cur)
		if err != nil {
			t.Fatal(err)
		}
		if res.Delay > static.Delay+1e-9 {
			t.Fatalf("dynamic delay %v exceeds static %v", res.Delay, static.Delay)
		}
		prev = cur
	}
}

// TestDynamicDelayVariesWithInput: a carry-chain adder must show a wide
// dynamic-delay distribution across random vectors — the core premise of
// the paper.
func TestDynamicDelayVariesWithInput(t *testing.T) {
	nl := circuits.NewRippleAdder(32)
	r := runnerFor(t, nl, nominal())
	rng := rand.New(rand.NewSource(7))
	min, max := 1e18, 0.0
	prev := circuits.EncodeOperands(0, 0)
	for i := 0; i < 300; i++ {
		cur := circuits.EncodeOperands(rng.Uint32(), rng.Uint32())
		res, err := r.Cycle(prev, cur)
		if err != nil {
			t.Fatal(err)
		}
		if res.Delay > 0 {
			if res.Delay < min {
				min = res.Delay
			}
			if res.Delay > max {
				max = res.Delay
			}
		}
		prev = cur
	}
	if max < 2*min {
		t.Errorf("dynamic delay spread too small: min %v, max %v", min, max)
	}
}

// TestErrorAtThresholds: a clock longer than the cycle's delay never
// errs; the sampled-vs-settled definition produces an error for a clock
// that truncates a genuine late transition.
func TestErrorAtThresholds(t *testing.T) {
	nl := circuits.NewRippleAdder(32)
	r := runnerFor(t, nl, cells.Corner{V: 0.81, T: 0})
	// Force a long carry: 0xFFFFFFFF + 1 ripples through every stage.
	prev := circuits.EncodeOperands(0xFFFFFFFF, 0)
	cur := circuits.EncodeOperands(0xFFFFFFFF, 1)
	res, err := r.Cycle(prev, cur)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delay <= 0 {
		t.Fatal("carry ripple produced no output toggles")
	}
	init := r.InitialOutputs()
	if res.ErrorAt(init, res.Delay*1.01) {
		t.Error("clock above dynamic delay still shows a timing error")
	}
	if !res.ErrorAt(init, res.Delay*0.5) {
		t.Error("half-delay clock shows no timing error despite late transitions")
	}
	// The settled outputs, which a generous clock latches, are the sum.
	if got := circuits.DecodeResult(res.Settled); got != 0 {
		t.Errorf("settled value = %#08x, want 0 (0xFFFFFFFF + 1)", got)
	}
}

// TestStreamingModeMatchesExplicitPrev: passing prev=nil must reuse the
// settled state exactly.
func TestStreamingModeMatchesExplicitPrev(t *testing.T) {
	nl := circuits.NewTruncMultiplier(8)
	r1 := runnerFor(t, nl, nominal())
	r2 := runnerFor(t, nl, nominal())
	rng := rand.New(rand.NewSource(3))
	vecs := make([][]bool, 20)
	for i := range vecs {
		v := make([]bool, 16)
		for j := range v {
			v[j] = rng.Intn(2) == 1
		}
		vecs[i] = v
	}
	for i := 1; i < len(vecs); i++ {
		a, err := r1.Cycle(vecs[i-1], vecs[i])
		if err != nil {
			t.Fatal(err)
		}
		var b *CycleResult
		if i == 1 {
			b, err = r2.Cycle(vecs[0], vecs[1])
		} else {
			b, err = r2.Cycle(nil, vecs[i])
		}
		if err != nil {
			t.Fatal(err)
		}
		if a.Delay != b.Delay || a.Events != b.Events {
			t.Fatalf("cycle %d: explicit (%v, %d) != streaming (%v, %d)",
				i, a.Delay, a.Events, b.Delay, b.Events)
		}
	}
}

func TestFirstCycleRequiresPrev(t *testing.T) {
	nl := circuits.NewRippleAdder(4)
	r := runnerFor(t, nl, nominal())
	if _, err := r.Cycle(nil, make([]bool, 8)); err == nil {
		t.Fatal("first Cycle with nil prev succeeded")
	}
}

func TestCycleDeterministic(t *testing.T) {
	nl := circuits.NewRippleAdder(16)
	r := runnerFor(t, nl, cells.Corner{V: 0.9, T: 100})
	prev := encN(16, 0x1234, 0x00FF)
	cur := encN(16, 0xFF01, 0x00FF)
	a, err := r.Cycle(prev, cur)
	if err != nil {
		t.Fatal(err)
	}
	aC := a.Clone()
	b, err := r.Cycle(prev, cur)
	if err != nil {
		t.Fatal(err)
	}
	if aC.Delay != b.Delay || aC.Events != b.Events {
		t.Fatalf("repeat run differs: (%v,%d) vs (%v,%d)", aC.Delay, aC.Events, b.Delay, b.Events)
	}
}

// TestInertialGlitchSwallowed: a pulse shorter than a downstream gate's
// delay must not appear at its output. Construct x -> INV -> AND(x, inv):
// a rising x creates a 1-pulse hazard at the AND input pair... the AND
// briefly sees (1, 1) until the INV output falls. With the inertial
// model, whether the pulse propagates depends on the relative delays; we
// assert that the simulator never emits a zero-width pulse and that
// toggles per net alternate values.
func TestTogglesAlternate(t *testing.T) {
	nl := circuits.NewTruncMultiplier(16)
	r := runnerFor(t, nl, cells.Corner{V: 0.81, T: 100})
	rng := rand.New(rand.NewSource(11))
	prev := make([]bool, 32)
	for i := 0; i < 50; i++ {
		cur := make([]bool, 32)
		for j := range cur {
			cur[j] = rng.Intn(2) == 1
		}
		res, err := r.Cycle(prev, cur)
		if err != nil {
			t.Fatal(err)
		}
		init := r.InitialOutputs()
		for oi, ts := range res.Toggles {
			last := init[oi]
			lastT := -1.0
			for _, tg := range ts {
				if tg.Val == last {
					t.Fatalf("output %d: non-alternating toggle at %v", oi, tg.T)
				}
				if tg.T <= lastT {
					t.Fatalf("output %d: toggles out of order (%v after %v)", oi, tg.T, lastT)
				}
				last, lastT = tg.Val, tg.T
			}
			if last != res.Settled[oi] {
				t.Fatalf("output %d: toggle replay (%v) disagrees with settled (%v)", oi, last, res.Settled[oi])
			}
		}
		prev = cur
	}
}

// TestNoInputChangeNoEvents: reapplying the same vector is a quiet cycle.
func TestNoInputChangeNoEvents(t *testing.T) {
	nl := circuits.NewRippleAdder(8)
	r := runnerFor(t, nl, nominal())
	v := encN(8, 0xAB, 0xCD)
	res, err := r.Cycle(v, v)
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != 0 || res.Delay != 0 {
		t.Fatalf("quiet cycle produced %d events, delay %v", res.Events, res.Delay)
	}
}

func TestNewRunnerRejectsBadDelays(t *testing.T) {
	nl := circuits.NewRippleAdder(4)
	bad := make([]float64, nl.NumGates())
	if _, err := NewRunner(nl, bad); err == nil {
		t.Fatal("NewRunner accepted zero delays")
	}
	if _, err := NewRunner(nl, bad[:1]); err == nil {
		t.Fatal("NewRunner accepted short delay slice")
	}
}

// TestObserverSeesEveryEvent: observer callback count matches Events.
func TestObserverSeesEveryEvent(t *testing.T) {
	nl := circuits.NewRippleAdder(8)
	r := runnerFor(t, nl, nominal())
	count := 0
	r.SetObserver(func(net netlist.NetID, tm float64, v bool) { count++ })
	res, err := r.Cycle(encN(8, 0, 0), encN(8, 0xFF, 1))
	if err != nil {
		t.Fatal(err)
	}
	if count != res.Events {
		t.Fatalf("observer saw %d events, result says %d", count, res.Events)
	}
}
