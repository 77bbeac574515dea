package core

import (
	"testing"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/imaging"
	"tevot/internal/inject"
	"tevot/internal/workload"
)

// recordAppStream profiles one application over a small synthetic image
// set and returns its operand stream for the given (native) FU — the
// same recording path the experiment lab uses.
func recordAppStream(t *testing.T, app inject.App, fu circuits.FU, pairCap int) *workload.Stream {
	t.Helper()
	rec := inject.NewRecording(pairCap)
	for _, img := range imaging.SyntheticSet(2, 24, 24) {
		app.Run(img, rec)
	}
	s, err := rec.Stream(fu)
	if err != nil {
		t.Fatal(err)
	}
	s.Name = app.String()
	return s
}

// TestMemoHitRateImagingStreams pins the optimization's premise on the
// workloads it was built for: the Sobel and Gaussian operand streams
// repeat input transitions, so characterization with the transition
// memo on must clear a minimum hit rate, which means every shard kept
// its memo past the probe — and produce bit-identical results to the
// reference kernel, which runs without the memo.
//
// Measured on this fixture (2× synthetic 24×24 images, 1500-pair cap):
// Sobel/INT_MUL 0.283, Sobel/INT_ADD 0.106, Gauss/FP_MUL 0.280,
// Gauss/FP_ADD 0.043. The rate grows with stream length as the repeat
// structure compounds across images — 0.44 at 20k cycles and ~0.60 at
// 60k cycles on the multipliers (8 images, larger caps) — so these
// small-fixture bounds are the floor, not the ceiling. The assertions
// sit below the measured values so image-set tweaks don't flake them;
// update both if the fixture changes.
func TestMemoHitRateImagingStreams(t *testing.T) {
	cases := []struct {
		app     inject.App
		fu      circuits.FU
		minRate float64
	}{
		{inject.SobelApp, circuits.IntMul32, 0.20},
		{inject.SobelApp, circuits.IntAdd32, 0.06},
		{inject.GaussApp, circuits.FPMul32, 0.20},
		{inject.GaussApp, circuits.FPAdd32, 0.02},
	}
	corner := cells.Corner{V: 0.90, T: 25}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.app.String()+"/"+tc.fu.String(), func(t *testing.T) {
			t.Parallel()
			s := recordAppStream(t, tc.app, tc.fu, 1500)
			u, err := NewFUnit(tc.fu)
			if err != nil {
				t.Fatal(err)
			}
			clocks := []float64{200, 400}
			on, err := CharacterizeOpts(u, corner, s, clocks, CharacterizeOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := CharacterizeOpts(u, corner, s, clocks, CharacterizeOptions{Workers: 1, RefKernel: true})
			if err != nil {
				t.Fatal(err)
			}

			// Bit-identical outputs, memo on vs the memo-free oracle.
			equalTraces(t, ref, on)

			// The premise: real streams repeat transitions.
			if hr := on.HitRate(); hr < tc.minRate {
				t.Fatalf("memo hit rate %.3f below %.2f on %s/%s (%d cycles, stats: %d hits, %d misses)",
					hr, tc.minRate, tc.app, tc.fu, on.Cycles(), on.MemoHits, on.MemoMisses)
			}
			if ref.MemoHits != 0 || ref.MemoMisses != 0 || ref.HitRate() != 0 {
				t.Fatalf("reference-kernel trace carries memo stats: %+v", ref)
			}
			t.Logf("%s/%s: %d cycles, hit rate %.3f, %d windows, pruned-gate fraction %.3f",
				tc.app, tc.fu, on.Cycles(), on.HitRate(), on.SliceWindows,
				func() float64 {
					if on.SliceWindows == 0 {
						return 0
					}
					return float64(on.SlicePrunedGateWindows) / (float64(on.SliceWindows) * float64(u.NL.NumGates()))
				}())
		})
	}
}

// TestMemoDropOnRandomStreams pins the memo drop rule: on a random
// stream no transition repeats, so every shard drops its memo after
// memoProbeCycles lookups — and the trace still equals the reference
// kernel's bit for bit, on every FU, at 1 and 2 shards.
func TestMemoDropOnRandomStreams(t *testing.T) {
	corner := cells.Corner{V: 0.85, T: 50}
	for _, fu := range circuits.AllFUs {
		u, err := NewFUnit(fu)
		if err != nil {
			t.Fatal(err)
		}
		static, err := u.Static(corner)
		if err != nil {
			t.Fatal(err)
		}
		clocks := []float64{0.5 * static.Delay, 0.9 * static.Delay}
		// 2·memoProbeCycles+3 cycles: at 2 shards, each runs past the
		// probe. The multipliers' reference runs dominate the test's
		// time (about a minute under -race), so the stream is no longer.
		stream := workload.Random(fu.IsFloat(), 2*memoProbeCycles+4, 5)
		ref, err := CharacterizeOpts(u, corner, stream, clocks, CharacterizeOptions{Workers: 2, RefKernel: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2} {
			tr, err := CharacterizeOpts(u, corner, stream, clocks, CharacterizeOptions{Workers: shards})
			if err != nil {
				t.Fatal(err)
			}
			equalTraces(t, ref, tr)
			if tr.MemoHits != 0 {
				t.Errorf("%v at %d shards: %d memo hits on a random stream", fu, shards, tr.MemoHits)
			}
			if lookups := tr.MemoHits + tr.MemoMisses; lookups != int64(shards*memoProbeCycles) {
				t.Errorf("%v at %d shards: %d memo lookups; want %d (%d per shard, then dropped)",
					fu, shards, lookups, shards*memoProbeCycles, memoProbeCycles)
			}
		}
	}
}
