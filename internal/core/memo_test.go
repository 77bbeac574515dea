package core

import (
	"runtime"
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

// TestCascadeCounters pins the per-tier counters: sim.cascade_cycles
// counts the cycles the event kernel ran, so with the memo hits it makes
// up a characterization's cycles, and on a random stream, where the memo
// never hits, sim.cascade_events is the trace's event total.
func TestCascadeCounters(t *testing.T) {
	corner := cells.Corner{V: 0.90, T: 25}
	u, err := NewFUnit(circuits.IntMul32)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		stream *workload.Stream
	}{
		{"sobel", recordAppStream(t, inject.SobelApp, circuits.IntMul32, 600)},
		{"random", workload.Random(false, memoProbeCycles+100, 3)},
	} {
		c0, e0 := mCascadeCycles.Value(), mCascadeEvents.Value()
		tr, err := CharacterizeOpts(u, corner, tc.stream, nil, CharacterizeOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		cycles, events := mCascadeCycles.Value()-c0, mCascadeEvents.Value()-e0
		if cycles+tr.MemoHits != int64(tr.Cycles()) {
			t.Errorf("%s: %d cascade cycles + %d memo hits != %d cycles", tc.name, cycles, tr.MemoHits, tr.Cycles())
		}
		switch {
		case tc.name == "sobel" && (tr.MemoHits == 0 || events >= int64(tr.Events)):
			t.Errorf("sobel: %d memo hits, %d cascade events of %d; hits must replay events the kernel did not run",
				tr.MemoHits, events, tr.Events)
		case tc.name == "random" && events != int64(tr.Events):
			t.Errorf("random: %d cascade events, trace has %d", events, tr.Events)
		}
	}
}

// TestShortShardMemoMap: a shard caps its memo at its own cycle count,
// and the memo sizes its map by the cap, so characterizing a 99-cycle
// stream (one shard, as each training slice of Table III's reduced
// scale is) allocates less in all (runtime.MemStats.TotalAlloc, one
// goroutine) than the 4096-entry map a 64 Ki cap would pre-size.
func TestShortShardMemoMap(t *testing.T) {
	u, err := NewFUnit(circuits.IntAdd32)
	if err != nil {
		t.Fatal(err)
	}
	corner := cells.Corner{V: 0.9, T: 25}
	stream := workload.RandomInt(100, 8)
	if _, err := Characterize(u, corner, stream, nil); err != nil { // builds the unit's cached STA
		t.Fatal(err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	tr, err := Characterize(u, corner, stream, nil)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms)
	got := ms.TotalAlloc - before
	if tr.MemoMisses == 0 {
		t.Fatal("the shard ran without its memo")
	}
	before = ms.TotalAlloc
	m := make(map[string]int32, 4096)
	runtime.ReadMemStats(&ms)
	mapBytes := ms.TotalAlloc - before
	runtime.KeepAlive(m)
	t.Logf("99 cycles allocate %d bytes; a 4096-entry memo map %d", got, mapBytes)
	if got >= mapBytes {
		t.Fatalf("characterizing 99 cycles allocates %d bytes, no less than a 4096-entry memo map (%d)", got, mapBytes)
	}
}
