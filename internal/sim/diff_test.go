package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/netlist"
	"tevot/internal/sta"
)

// The differential suite: the fast calendar-queue/CSR/LUT kernel must be
// bit-identical to the reference heap kernel on every circuit — same
// Delay, Settled, Toggles, Events, and the same observer stream in the
// same order. These tests are the contract that lets the fast kernel
// replace the heap without a semantic audit of every caller.

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

// runKernelDiff drives four runners through the same cycle sequence and
// fails on the first observable divergence: the fast and reference
// kernels (with observers, comparing full transition streams), a
// memoized fast runner, and a memoized runner fed bitslice windows.
// Vectors alternate between streaming mode (prev == nil) and
// explicit-prev settles to cover the fast kernel's incremental and
// rebuilt input-bitset paths; about half the vectors repeat earlier ones
// so the memo runners exercise their hit and post-hit re-settle paths.
func runKernelDiff(t *testing.T, nl *netlist.Netlist, delays []float64, seed int64, cycles int) {
	t.Helper()
	fast, err := NewRunner(nl, delays)
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
		mr, err := memo.Cycle(prevArg, cur)
		if err != nil {
			t.Fatal(err)
		}
		wr, err := memoWin.Cycle(prevArg, cur)
		if err != nil {
			t.Fatal(err)
		}
		compareCycles(t, "fast", cycle, fr, rr)
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
// pipeline actually simulates.
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
			for ci, corner := range corners {
				delays, err := sta.GateDelays(nl, corner, sta.DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				runKernelDiff(t, nl, delays, int64(ci)*31+7, 12)
			}
		})
	}
}

// TestKernelDiffRandom fuzzes kernel equivalence over the same random
// circuit family as the simulator's functional fuzz corpus.
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
		runKernelDiff(t, nl, delays, seed+500, 20)
	}
}

// TestKernelDiffExtremeDelayRatio forces the calendar queue's overflow
// path: a delay spread wider than the wheel's capped horizon
// (maxD/minD >> maxBuckets) makes long-delay gates schedule events past
// the wheel, exercising overflow tracking, migration, and the rebase
// jump when only far-future events remain.
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
			// ratio ~1e5, far beyond the 2^12-bucket horizon.
			if rng.Intn(4) == 0 {
				delays[gi] = 1e5 * (1 + rng.Float64())
			} else {
				delays[gi] = 1 + rng.Float64()
			}
		}
		runKernelDiff(t, nl, delays, seed+900, 20)
	}
}

// TestKernelDiffStampWrap runs the fast kernel across the wrap of the
// per-batch visit stamp against a reference runner far from it, on
// equal gate delays so that most batches hold many events and go
// through mark: a gate whose stamp happens to equal the wrapped value
// must still be evaluated. Each start offset puts the wrap at another
// batch of the run.
func TestKernelDiffStampWrap(t *testing.T) {
	nl, err := netlist.Random(netlist.RandomOptions{Inputs: 8, Gates: 200, Outputs: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	delays := make([]float64, nl.NumGates())
	for gi := range delays {
		delays[gi] = 1
	}
	for off := uint32(1); off <= 40; off++ {
		fast, err := NewRunner(nl, delays)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewRefRunner(nl, delays)
		if err != nil {
			t.Fatal(err)
		}
		fast.curStamp = math.MaxUint32 - off
		rng := rand.New(rand.NewSource(5))
		prev := make([]bool, len(nl.PrimaryInputs))
		for cycle := 0; cycle < 10; cycle++ {
			cur := make([]bool, len(prev))
			for i := range cur {
				cur[i] = rng.Intn(2) == 1
			}
			var prevArg []bool
			if cycle == 0 {
				prevArg = prev
			}
			fr, err := fast.Cycle(prevArg, cur)
			if err != nil {
				t.Fatal(err)
			}
			rr, err := ref.Cycle(prevArg, cur)
			if err != nil {
				t.Fatal(err)
			}
			compareCycles(t, fmt.Sprintf("fast (stamp offset %d)", off), cycle, fr, rr)
		}
		if fast.curStamp > math.MaxUint32/2 {
			t.Fatalf("offset %d: the stamp did not wrap (curStamp %d)", off, fast.curStamp)
		}
	}
}
