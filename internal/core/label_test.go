package core

import (
	"context"
	"strings"
	"testing"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/workload"
)

// TestLabelTailLemma pins the lemma Label rests on, over seeded random
// streams on every FU at two corners, at clocks derived from each
// stream's own base (base/1.05 … base/1.5):
//
//   - every cycle's delay lies in [0, StaticDelay];
//   - a cycle whose delay is below a clock never errs at it;
//   - labelling only the tail (CharacterizeCalibrated, whose Label runs
//     at 2 shards, and Label at 1 shard and, for INT_MUL at one corner,
//     on the reference kernel) equals a characterization labelled
//     inline, bit for bit, memo counters included;
//   - a trace whose delays were altered is refused.
//
// The multipliers' tails hold glitchy cycles, whose delay reaches the
// clock but whose sampled outputs are right, so a tail labelled by
// delay ≥ clock instead of simulated fails the test. TER is not
// asserted monotone in the clock: a glitch makes one cycle's error
// non-monotone in tclk.
func TestLabelTailLemma(t *testing.T) {
	ctx := context.Background()
	corners := []cells.Corner{{V: 0.85, T: 50}, {V: 1.00, T: 25}}
	speedups := []float64{0.05, 0.10, 0.15, 0.5}
	glitchy := 0
	for _, fu := range circuits.AllFUs {
		u, err := NewFUnit(fu)
		if err != nil {
			t.Fatal(err)
		}
		// At base/1.5 most multiplier cycles are tail, so 200 of them
		// still split into two label shards (minShardCycles each).
		cycles := 1000
		if fu == circuits.IntMul32 || fu == circuits.FPMul32 {
			cycles = 200
		}
		stream := workload.Random(fu.IsFloat(), cycles+1, 11)
		for ci, corner := range corners {
			tr, err := CharacterizeCalibrated(ctx, u, corner, stream, speedups, CharacterizeOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if base, err := u.BaseClock(corner); err != nil || base != tr.MaxDelay {
				t.Fatalf("%v at %v: base clock %v (%v), want the trace's MaxDelay %v", fu, corner, base, err, tr.MaxDelay)
			}
			full, err := CharacterizeWithSpeedupsOptsContext(ctx, u, corner, stream, speedups, CharacterizeOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			equalTraces(t, full, tr)
			if tr.MemoHits != full.MemoHits || tr.MemoMisses != full.MemoMisses {
				t.Fatalf("%v at %v: memo counters %d/%d, inline run %d/%d", fu, corner,
					tr.MemoHits, tr.MemoMisses, full.MemoHits, full.MemoMisses)
			}

			fastest := full.ClockPeriods[len(full.ClockPeriods)-1]
			tail := -1
			for i, d := range full.Delays {
				if d < 0 || d > full.StaticDelay {
					t.Fatalf("%v at %v: cycle %d delay %v outside [0, %v]", fu, corner, i, d, full.StaticDelay)
				}
				if d >= fastest && tail < 0 {
					tail = i
				}
				for k, clk := range full.ClockPeriods {
					switch {
					case d < clk && full.Errors[k][i]:
						t.Fatalf("%v at %v: cycle %d (delay %v) errs at clock %v", fu, corner, i, d, clk)
					case d >= clk && !full.Errors[k][i]:
						glitchy++
					}
				}
			}

			labelOpts := []CharacterizeOptions{{Workers: 1}}
			if fu == circuits.IntMul32 && ci == 0 {
				labelOpts = append(labelOpts, CharacterizeOptions{Workers: 1, RefKernel: true})
			}
			for _, opts := range labelOpts {
				got, err := Label(ctx, u, tr, full.ClockPeriods, opts)
				if err != nil {
					t.Fatal(err)
				}
				equalTraces(t, full, got)
			}

			if tail < 0 {
				t.Fatalf("%v at %v: no cycle reaches the fastest clock %v", fu, corner, fastest)
			}
			nudged := *tr
			nudged.Delays = append([]float64(nil), tr.Delays...)
			nudged.Delays[tail]++
			_, err = Label(ctx, u, &nudged, full.ClockPeriods, CharacterizeOptions{Workers: 1})
			if err == nil || !strings.Contains(err.Error(), "re-simulates") {
				t.Fatalf("%v at %v: Label accepted a trace with cycle %d's delay moved by 1 ps (err %v)", fu, corner, tail, err)
			}
		}
	}
	if glitchy == 0 {
		t.Fatal("no tail cycle samples correctly: the test no longer covers glitches")
	}
	t.Logf("%d (cycle, clock) labels reach the clock without an error", glitchy)
}

// TestLabelRejectsBadInputs: Label refuses a nil trace, a trace of
// another unit, and the capture clocks Characterize refuses.
func TestLabelRejectsBadInputs(t *testing.T) {
	ctx := context.Background()
	u, err := NewFUnit(circuits.IntAdd32)
	if err != nil {
		t.Fatal(err)
	}
	corner := cells.Corner{V: 0.9, T: 25}
	tr, err := Characterize(u, corner, workload.RandomInt(64, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	other := *tr
	other.FU = circuits.IntMul32
	cases := []struct {
		name   string
		tr     *Trace
		clocks []float64
		want   string
	}{
		{"nil trace", nil, []float64{100}, "nil trace"},
		{"other unit", &other, []float64{100}, "cannot be labelled"},
		{"zero clock", tr, []float64{0}, "must be positive"},
	}
	for _, tc := range cases {
		if _, err := Label(ctx, u, tc.tr, tc.clocks, CharacterizeOptions{}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}
