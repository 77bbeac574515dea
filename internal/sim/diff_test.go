package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/netlist"
	"tevot/internal/sta"
)

// The differential suite: the fast waveform kernel must be bit-identical
// to the reference heap kernel on every circuit — same Delay, Settled,
// Toggles, Events, and the same observer stream in the same order. These
// tests are the contract that lets the fast kernel replace the heap
// without a semantic audit of every caller.

// obsRecord is one observer callback, for stream comparison.
type obsRecord struct {
	net netlist.NetID
	t   float64
	val bool
}

// compareCycles fails on any observable divergence between a candidate
// CycleResult and the reference one.
func compareCycles(t *testing.T, label string, cycle int, got, want *CycleResult) {
	t.Helper()
	if got.Delay != want.Delay {
		t.Fatalf("cycle %d: Delay %s=%v ref=%v", cycle, label, got.Delay, want.Delay)
	}
	if got.Events != want.Events {
		t.Fatalf("cycle %d: Events %s=%d ref=%d", cycle, label, got.Events, want.Events)
	}
	for i := range want.Settled {
		if got.Settled[i] != want.Settled[i] {
			t.Fatalf("cycle %d: Settled[%d] %s=%v ref=%v", cycle, i, label, got.Settled[i], want.Settled[i])
		}
	}
	for oi := range want.Toggles {
		if len(got.Toggles[oi]) != len(want.Toggles[oi]) {
			t.Fatalf("cycle %d output %d: %d toggles %s, %d ref",
				cycle, oi, len(got.Toggles[oi]), label, len(want.Toggles[oi]))
		}
		for k := range want.Toggles[oi] {
			if got.Toggles[oi][k] != want.Toggles[oi][k] {
				t.Fatalf("cycle %d output %d toggle %d: %s=%+v ref=%+v",
					cycle, oi, k, label, got.Toggles[oi][k], want.Toggles[oi][k])
			}
		}
	}
}

// runKernelDiff drives five runners through the same cycle sequence and
// fails on the first observable divergence: the fast and reference
// kernels (with observers, comparing full transition streams), the fast
// kernel without an observer, a memoized fast runner, and a memoized
// runner fed bitslice windows. Vectors alternate between streaming mode
// (prev == nil) and explicit-prev settles to cover the fast kernel's
// incremental and rebuilt input-bitset paths; about half the vectors
// repeat earlier ones so the memo runners exercise their hit and
// post-hit re-settle paths. gen draws a fresh vector; nil draws every
// input bit at random.
func runKernelDiff(t *testing.T, nl *netlist.Netlist, delays []float64, seed int64, cycles int, gen func(*rand.Rand) []bool) {
	t.Helper()
	fast, err := NewRunner(nl, delays)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewRunner(nl, delays)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewRefRunner(nl, delays)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Ref() || !ref.Ref() {
		t.Fatal("kernel selection mixed up")
	}
	memo, err := NewRunner(nl, delays)
	if err != nil {
		t.Fatal(err)
	}
	memo.EnableMemo(0)
	memoWin, err := NewRunner(nl, delays)
	if err != nil {
		t.Fatal(err)
	}
	memoWin.EnableMemo(0)
	var fastObs, refObs []obsRecord
	fast.SetObserver(func(n netlist.NetID, at float64, v bool) {
		fastObs = append(fastObs, obsRecord{n, at, v})
	})
	ref.SetObserver(func(n netlist.NetID, at float64, v bool) {
		refObs = append(refObs, obsRecord{n, at, v})
	})
	rng := rand.New(rand.NewSource(seed))
	ni := len(nl.PrimaryInputs)
	// Pre-generate the whole vector sequence (vecs[0] is the initial
	// settled state; cycle c applies vecs[c+1]) so windows can be
	// declared ahead of time. Half the vectors repeat earlier ones.
	vecs := make([][]bool, cycles+1)
	for c := range vecs {
		if c > 1 && rng.Intn(2) == 1 {
			// Reuse one of the last few vectors: short A/B/A-style loops
			// make (prev, cur) transition pairs repeat within the run.
			back := rng.Intn(min(c, 4))
			vecs[c] = vecs[c-1-back]
			continue
		}
		if gen != nil {
			vecs[c] = gen(rng)
			continue
		}
		v := make([]bool, ni)
		for i := range v {
			v[i] = rng.Intn(2) == 1
		}
		vecs[c] = v
	}
	// The memo runner looks up every cycle (no observer, keyed from
	// cycle 0's explicit prev), so its hit count must equal the exact
	// number of repeated transitions in the sequence.
	wantHits := int64(0)
	seenPair := make(map[string]bool)
	for c := 0; c < cycles; c++ {
		key := fmt.Sprint(vecs[c], vecs[c+1])
		if seenPair[key] {
			wantHits++
		}
		seenPair[key] = true
	}
	winEnd := 1 // cycle 0 keys the memo; windows cover later cycles
	for cycle := 0; cycle < cycles; cycle++ {
		cur := vecs[cycle+1]
		var prevArg []bool
		if cycle == 0 || cycle%7 == 3 {
			prevArg = vecs[cycle]
		}
		if cycle >= winEnd {
			// Short windows so the suite crosses window boundaries and
			// re-begins often, including across explicit-prev settles.
			m := cycles - cycle
			if m > 5 {
				m = 5
			}
			if err := memoWin.BeginWindow(vecs[cycle+1 : cycle+1+m]); err != nil {
				t.Fatal(err)
			}
			winEnd = cycle + m
		}
		fastObs, refObs = fastObs[:0], refObs[:0]
		fr, err := fast.Cycle(prevArg, cur)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := ref.Cycle(prevArg, cur)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := plain.Cycle(prevArg, cur)
		if err != nil {
			t.Fatal(err)
		}
		mr, err := memo.Cycle(prevArg, cur)
		if err != nil {
			t.Fatal(err)
		}
		wr, err := memoWin.Cycle(prevArg, cur)
		if err != nil {
			t.Fatal(err)
		}
		compareCycles(t, "fast", cycle, fr, rr)
		compareCycles(t, "fast without observer", cycle, pr, rr)
		compareCycles(t, "memo", cycle, mr, rr)
		compareCycles(t, "memo+window", cycle, wr, rr)
		if len(fastObs) != len(refObs) {
			t.Fatalf("cycle %d: observer saw %d transitions fast, %d ref",
				cycle, len(fastObs), len(refObs))
		}
		for k := range refObs {
			if fastObs[k] != refObs[k] {
				t.Fatalf("cycle %d observer record %d: fast=%+v ref=%+v",
					cycle, k, fastObs[k], refObs[k])
			}
		}
	}
	if s := memo.MemoStats(); s.Hits != wantHits {
		t.Fatalf("memo runner hits = %d, want %d (stats %+v)", s.Hits, wantHits, s)
	}
	if s := memoWin.MemoStats(); s.Hits != wantHits {
		t.Fatalf("windowed memo runner hits = %d, want %d (stats %+v)", s.Hits, wantHits, s)
	}
}

// TestKernelDiffFUs pins kernel equivalence on all four functional units
// across voltage/temperature corners — the circuits the characterization
// pipeline actually simulates. Besides random input bits it drives the
// operand shapes of the imaging streams (8-bit pixels times small
// signed coefficients) and 16-bit × 16-bit operands, as integers or as
// floats by the unit; on the multipliers such cycles carry several
// transitions per gate.
func TestKernelDiffFUs(t *testing.T) {
	corners := []cells.Corner{{V: 0.81, T: 100}, {V: 0.85, T: 50}, {V: 1.00, T: 0}}
	for _, fu := range circuits.AllFUs {
		fu := fu
		t.Run(fu.String(), func(t *testing.T) {
			t.Parallel()
			nl, err := fu.Build()
			if err != nil {
				t.Fatal(err)
			}
			operand := func(x int32) uint32 {
				if fu.IsFloat() {
					return math.Float32bits(float32(x))
				}
				return uint32(x)
			}
			imaging := func(rng *rand.Rand) []bool {
				return circuits.EncodeOperands(operand(rng.Int31n(256)), operand(rng.Int31n(9)-4))
			}
			wide := func(rng *rand.Rand) []bool {
				return circuits.EncodeOperands(operand(rng.Int31n(1<<16)), operand(rng.Int31n(1<<16)))
			}
			for ci, corner := range corners {
				delays, err := sta.GateDelays(nl, corner, sta.DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				runKernelDiff(t, nl, delays, int64(ci)*31+7, 12, nil)
				runKernelDiff(t, nl, delays, int64(ci)*31+8, 24, imaging)
				runKernelDiff(t, nl, delays, int64(ci)*31+9, 24, wide)
			}
		})
	}
}

// TestKernelDiffRandom fuzzes kernel equivalence over the same random
// circuit family as the simulator's functional fuzz corpus, once with
// STA delays and once with integer delays of 1–3 ps. Integer delays make
// exact time ties common: several pins of one gate flipping at the same
// time, and a gate's pending output event maturing at exactly the time
// of an input batch. STA delays almost never tie.
func TestKernelDiffRandom(t *testing.T) {
	corners := []cells.Corner{{V: 0.81, T: 0}, {V: 0.90, T: 50}, {V: 1.00, T: 100}}
	for seed := int64(0); seed < 25; seed++ {
		nl, err := netlist.Random(netlist.RandomOptions{
			Inputs:  4 + int(seed%5),
			Gates:   20 + int(seed*7%60),
			Outputs: 1 + int(seed%4),
			Seed:    seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		delays, err := sta.GateDelays(nl, corners[seed%int64(len(corners))], sta.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		runKernelDiff(t, nl, delays, seed+500, 20, nil)
		rng := rand.New(rand.NewSource(seed + 700))
		for gi := range delays {
			delays[gi] = float64(1 + rng.Intn(3))
		}
		runKernelDiff(t, nl, delays, seed+600, 40, nil)
	}
}

// TestKernelDiffExtremeDelayRatio runs the kernels on delays five orders
// of magnitude apart: a few long gates whose events land long after
// every short gate has settled, on top of short ones whose times differ
// in their last bits.
func TestKernelDiffExtremeDelayRatio(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		nl, err := netlist.Random(netlist.RandomOptions{
			Inputs:  6,
			Gates:   40 + int(seed*13%40),
			Outputs: 3,
			Seed:    200 + seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		delays := make([]float64, nl.NumGates())
		for gi := range delays {
			// Mostly unit-scale delays with occasional huge outliers:
			// ratio ~1e5.
			if rng.Intn(4) == 0 {
				delays[gi] = 1e5 * (1 + rng.Float64())
			} else {
				delays[gi] = 1 + rng.Float64()
			}
		}
		runKernelDiff(t, nl, delays, seed+900, 20, nil)
	}
}

// TestKernelDiffStampWrap runs the two users of the per-gate visit
// stamp across its wrap, each against a runner far from it. The heap
// kernel takes a stamp per time batch (newBatch); its gate delays are
// equal, so that most batches hold many events and go through mark.
// BeginWindow takes one per window to count the gates it prunes. A gate
// whose stamp happens to equal the wrapped value must still be
// evaluated, and counted. Each start offset puts the wrap at another
// batch or window of the run. The fast kernel has no stamp: its heads
// are cleared after every cycle.
func TestKernelDiffStampWrap(t *testing.T) {
	nl, err := netlist.Random(netlist.RandomOptions{Inputs: 8, Gates: 200, Outputs: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	delays := make([]float64, nl.NumGates())
	for gi := range delays {
		delays[gi] = 1
	}
	rng := rand.New(rand.NewSource(5))
	vecs := make([][]bool, 11)
	for c := range vecs {
		vecs[c] = make([]bool, len(nl.PrimaryInputs))
		for i := range vecs[c] {
			vecs[c][i] = rng.Intn(2) == 1
		}
	}
	// walk flips one input per vector, so each window's dirty nets are
	// the cones of two inputs and most gates keep an older stamp.
	walk := make([][]bool, 86)
	walk[0] = vecs[0]
	for c := 1; c < len(walk); c++ {
		walk[c] = slices.Clone(walk[c-1])
		i := rng.Intn(len(walk[c]))
		walk[c][i] = !walk[c][i]
	}
	for off := uint32(1); off <= 40; off++ {
		wrapped, err := NewRefRunner(nl, delays)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewRefRunner(nl, delays)
		if err != nil {
			t.Fatal(err)
		}
		wrapped.curStamp = math.MaxUint32 - off
		for cycle := 0; cycle < 10; cycle++ {
			var prevArg []bool
			if cycle == 0 {
				prevArg = vecs[0]
			}
			wr, err := wrapped.Cycle(prevArg, vecs[cycle+1])
			if err != nil {
				t.Fatal(err)
			}
			rr, err := ref.Cycle(prevArg, vecs[cycle+1])
			if err != nil {
				t.Fatal(err)
			}
			compareCycles(t, fmt.Sprintf("ref (stamp offset %d)", off), cycle, wr, rr)
		}
		if wrapped.curStamp > math.MaxUint32/2 {
			t.Fatalf("offset %d: the heap kernel's stamp did not wrap (curStamp %d)", off, wrapped.curStamp)
		}

		// Windows of two cycles each over walk; 42 windows take the
		// stamp past the wrap from every offset.
		wrappedWin, err := NewRunner(nl, delays)
		if err != nil {
			t.Fatal(err)
		}
		win, err := NewRunner(nl, delays)
		if err != nil {
			t.Fatal(err)
		}
		wrappedWin.curStamp = math.MaxUint32 - off
		for _, r := range []*Runner{wrappedWin, win} {
			r.EnableMemo(0)
			if _, err := r.Cycle(walk[0], walk[1]); err != nil {
				t.Fatal(err)
			}
			for c := 2; c+2 <= len(walk); c += 2 {
				if err := r.BeginWindow(walk[c : c+2]); err != nil {
					t.Fatal(err)
				}
				for _, v := range walk[c : c+2] {
					if _, err := r.Cycle(nil, v); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if got, want := wrappedWin.SliceStats(), win.SliceStats(); got != want {
			t.Fatalf("offset %d: window stats across the stamp wrap %+v, want %+v", off, got, want)
		}
		if wrappedWin.curStamp > math.MaxUint32/2 {
			t.Fatalf("offset %d: the window stamp did not wrap (curStamp %d)", off, wrappedWin.curStamp)
		}
	}
}
