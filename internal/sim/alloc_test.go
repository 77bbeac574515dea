package sim

import (
	"math/rand"
	"testing"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/sta"
)

// steadyKernelRunner builds a warmed-up runner (the reference kernel's
// when ref is set) and a pool of input vectors for allocation
// measurements.
func steadyKernelRunner(t testing.TB, fu circuits.FU, ref bool) (*Runner, [][]bool) {
	nl, err := fu.Build()
	if err != nil {
		t.Fatal(err)
	}
	delays, err := sta.GateDelays(nl, cells.Corner{V: 0.85, T: 50}, sta.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	newR := NewRunner
	if ref {
		newR = NewRefRunner
	}
	r, err := newR(nl, delays)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	vecs := make([][]bool, 64)
	for i := range vecs {
		vecs[i] = circuits.EncodeOperands(rng.Uint32(), rng.Uint32())
	}
	// Warm-up pass: grow the toggle, heap, and batch buffers to their
	// working capacity so the steady state reuses them.
	if _, err := r.Cycle(vecs[0], vecs[1]); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*len(vecs); i++ {
		if _, err := r.Cycle(nil, vecs[i%len(vecs)]); err != nil {
			t.Fatal(err)
		}
	}
	return r, vecs
}

// TestCycleSteadyStateNoAllocs locks in the allocation-free hot path for
// both kernels: after warm-up, streaming Cycle calls reuse every
// internal buffer — the fast kernel's waveform arena and the heap
// kernel's heap and batch scratch included.
func TestCycleSteadyStateNoAllocs(t *testing.T) {
	for _, kern := range []struct {
		name string
		ref  bool
	}{{"fast", false}, {"ref", true}} {
		for _, fu := range circuits.AllFUs {
			kern, fu := kern, fu
			t.Run(kern.name+"/"+fu.String(), func(t *testing.T) {
				r, vecs := steadyKernelRunner(t, fu, kern.ref)
				i := 0
				allocs := testing.AllocsPerRun(200, func() {
					if _, err := r.Cycle(nil, vecs[i%len(vecs)]); err != nil {
						t.Fatal(err)
					}
					i++
				})
				if allocs != 0 {
					t.Fatalf("steady-state Cycle allocates %.1f times per call; want 0", allocs)
				}
			})
		}
	}
}

// steadyMemoRunner is steadyKernelRunner's fast runner with the
// transition memo enabled and every transition of the vector ring
// already cached: two full warm-up passes populate the cache (and grow
// the rehydration buffers), so subsequent streaming cycles are pure
// hits.
func steadyMemoRunner(t testing.TB, fu circuits.FU) (*Runner, [][]bool) {
	nl, err := fu.Build()
	if err != nil {
		t.Fatal(err)
	}
	delays, err := sta.GateDelays(nl, cells.Corner{V: 0.85, T: 50}, sta.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(nl, delays)
	if err != nil {
		t.Fatal(err)
	}
	r.EnableMemo(0)
	rng := rand.New(rand.NewSource(7))
	vecs := make([][]bool, 64)
	for i := range vecs {
		vecs[i] = circuits.EncodeOperands(rng.Uint32(), rng.Uint32())
	}
	if _, err := r.Cycle(vecs[0], vecs[1]); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*len(vecs); i++ {
		if _, err := r.Cycle(nil, vecs[i%len(vecs)]); err != nil {
			t.Fatal(err)
		}
	}
	return r, vecs
}

// TestMemoHitSteadyStateNoAllocs locks in the allocation-free memoized
// hit path on every functional unit: once the vector ring's transitions
// are cached, a streaming Cycle is key packing + one map lookup + a
// rehydration into reused buffers — zero allocations.
func TestMemoHitSteadyStateNoAllocs(t *testing.T) {
	for _, fu := range circuits.AllFUs {
		fu := fu
		t.Run(fu.String(), func(t *testing.T) {
			r, vecs := steadyMemoRunner(t, fu)
			before := r.MemoStats()
			i := 0
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := r.Cycle(nil, vecs[i%len(vecs)]); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if allocs != 0 {
				t.Fatalf("memoized hit path allocates %.1f times per call; want 0", allocs)
			}
			after := r.MemoStats()
			if after.Misses != before.Misses {
				t.Fatalf("steady state missed the cache %d times; the measurement did not cover the hit path",
					after.Misses-before.Misses)
			}
		})
	}
}

// TestWindowScratchNoAllocs locks in the reused bitslice scratch: after
// the first window allocates the lane/key/dirty buffers, declaring a new
// window plus streaming through it is allocation-free.
func TestWindowScratchNoAllocs(t *testing.T) {
	r, vecs := steadyMemoRunner(t, circuits.IntAdd32)
	window := vecs[1:9]
	// First window call allocates the scratch once.
	if err := r.BeginWindow(window); err != nil {
		t.Fatal(err)
	}
	for _, v := range window {
		if _, err := r.Cycle(nil, v); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := r.BeginWindow(window); err != nil {
			t.Fatal(err)
		}
		for _, v := range window {
			if _, err := r.Cycle(nil, v); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("bitslice window scratch allocates %.1f times per window; want 0", allocs)
	}
	if s := r.SliceStats(); s.Windows < 50 {
		t.Fatalf("windows did not engage during the measurement: %+v", s)
	}
}
