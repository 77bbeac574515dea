package core

import (
	"math"
	"testing"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/features"
	"tevot/internal/workload"
)

func TestTableIGrid(t *testing.T) {
	g := TableIGrid()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	corners := g.Corners()
	if len(corners) != 100 {
		t.Fatalf("Table I grid has %d corners, want 100", len(corners))
	}
	if corners[0] != (cells.Corner{V: 0.81, T: 0}) {
		t.Errorf("first corner = %v", corners[0])
	}
	if corners[len(corners)-1] != (cells.Corner{V: 1.00, T: 100}) {
		t.Errorf("last corner = %v", corners[len(corners)-1])
	}
	if len(g.Speedups) != 3 || g.Speedups[0] != 0.05 || g.Speedups[2] != 0.15 {
		t.Errorf("speedups = %v", g.Speedups)
	}
	seen := make(map[cells.Corner]bool)
	for _, c := range corners {
		if seen[c] {
			t.Fatalf("duplicate corner %v", c)
		}
		seen[c] = true
	}
}

func TestFig3Corners(t *testing.T) {
	cs := Fig3Corners()
	if len(cs) != 9 {
		t.Fatalf("Fig. 3 subset has %d corners, want 9", len(cs))
	}
}

func TestGridValidation(t *testing.T) {
	bad := TableIGrid()
	bad.VStep = 0
	if err := bad.Validate(); err == nil {
		t.Error("accepted zero VStep")
	}
	bad = TableIGrid()
	bad.Speedups = []float64{1.5}
	if err := bad.Validate(); err == nil {
		t.Error("accepted speedup >= 1")
	}
}

func TestFUnitStaticCaching(t *testing.T) {
	u, err := NewFUnit(circuits.IntAdd32)
	if err != nil {
		t.Fatal(err)
	}
	c := cells.Corner{V: 0.9, T: 50}
	a, err := u.Static(c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := u.Static(c)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Static result not cached")
	}
}

func TestBaseClockOverride(t *testing.T) {
	u, err := NewFUnit(circuits.IntAdd32)
	if err != nil {
		t.Fatal(err)
	}
	c := cells.Corner{V: 1.0, T: 25}
	staBase, err := u.BaseClock(c)
	if err != nil {
		t.Fatal(err)
	}
	if staBase <= 0 {
		t.Fatal("STA base clock should be positive")
	}
	if err := u.SetBaseClock(c, 123.5); err != nil {
		t.Fatal(err)
	}
	got, err := u.BaseClock(c)
	if err != nil {
		t.Fatal(err)
	}
	if got != 123.5 {
		t.Errorf("override not honored: %v", got)
	}
	if err := u.SetBaseClock(c, -1); err == nil {
		t.Error("accepted negative base clock")
	}
	clocks, err := u.ClockPeriods(c, []float64{0.05, 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(clocks[0]-123.5/1.05) > 1e-9 || math.Abs(clocks[1]-123.5/1.10) > 1e-9 {
		t.Errorf("clock periods = %v", clocks)
	}
	if _, err := u.ClockPeriods(c, []float64{0}); err == nil {
		t.Error("accepted zero speedup")
	}
}

func TestCharacterizeBasics(t *testing.T) {
	u, err := NewFUnit(circuits.IntAdd32)
	if err != nil {
		t.Fatal(err)
	}
	c := cells.Corner{V: 0.85, T: 25}
	s := workload.RandomInt(201, 11)
	tr, err := Characterize(u, c, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Cycles() != 200 {
		t.Fatalf("cycles = %d, want 200", tr.Cycles())
	}
	if tr.MaxDelay <= 0 || tr.MaxDelay > tr.StaticDelay {
		t.Errorf("max dynamic delay %v outside (0, static %v]", tr.MaxDelay, tr.StaticDelay)
	}
	if tr.MeanDelay() <= 0 || tr.MeanDelay() > tr.MaxDelay {
		t.Errorf("mean delay %v inconsistent", tr.MeanDelay())
	}
	// Errors at a clock equal to static delay: none.
	tr2, err := Characterize(u, c, s, []float64{tr.StaticDelay * 1.01})
	if err != nil {
		t.Fatal(err)
	}
	if ter := tr2.TER(0); ter != 0 {
		t.Errorf("TER at above-static clock = %v, want 0", ter)
	}
	// Errors at a tiny clock: almost every active cycle errs.
	tr3, err := Characterize(u, c, s, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if ter := tr3.TER(0); ter < 0.9 {
		t.Errorf("TER at 1 ps clock = %v, want near 1", ter)
	}
	if _, err := Characterize(u, c, &workload.Stream{Name: "x"}, nil); err == nil {
		t.Error("accepted empty stream")
	}
}

func TestCalibrateBaseClock(t *testing.T) {
	u, err := NewFUnit(circuits.IntAdd32)
	if err != nil {
		t.Fatal(err)
	}
	c := cells.Corner{V: 0.9, T: 0}
	s := workload.RandomInt(301, 13)
	base, err := u.CalibrateBaseClock(c, s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := u.BaseClock(c)
	if err != nil {
		t.Fatal(err)
	}
	if got != base {
		t.Errorf("BaseClock = %v after calibration to %v", got, base)
	}
	static, err := u.Static(c)
	if err != nil {
		t.Fatal(err)
	}
	if base > static.Delay {
		t.Errorf("measured base %v exceeds static delay %v", base, static.Delay)
	}
	// At any positive speedup from the measured base, at least the
	// max-delay cycle must err... (its delay > base/(1+s)).
	tr, err := CharacterizeWithSpeedups(u, c, s, []float64{0.10})
	if err != nil {
		t.Fatal(err)
	}
	if tr.TER(0) == 0 {
		t.Error("10% speedup from the measured base produced no timing errors")
	}
}

// TestPipelineEndToEnd is the headline integration test: train TEVoT on
// random data at two corners and verify it beats all three baselines on
// held-out data, as in the paper's Table III.
func TestPipelineEndToEnd(t *testing.T) {
	u, err := NewFUnit(circuits.IntAdd32)
	if err != nil {
		t.Fatal(err)
	}
	corners := []cells.Corner{{V: 0.81, T: 25}, {V: 0.95, T: 75}}
	speedups := []float64{0.05, 0.15}

	var trainTraces, testTraces []*Trace
	for ci, c := range corners {
		train := workload.RandomInt(2501, int64(100+ci))
		test := workload.RandomInt(801, int64(200+ci))
		if _, err := u.CalibrateBaseClock(c, train); err != nil {
			t.Fatal(err)
		}
		trTrain, err := CharacterizeWithSpeedups(u, c, train, speedups)
		if err != nil {
			t.Fatal(err)
		}
		trTest, err := CharacterizeWithSpeedups(u, c, test, speedups)
		if err != nil {
			t.Fatal(err)
		}
		trainTraces = append(trainTraces, trTrain)
		testTraces = append(testTraces, trTest)
	}

	tevot, err := Train(circuits.IntAdd32, trainTraces, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	nhCfg := DefaultConfig()
	nhCfg.History = false
	tevotNH, err := Train(circuits.IntAdd32, trainTraces, nhCfg)
	if err != nil {
		t.Fatal(err)
	}
	delayBased, err := NewDelayBased(circuits.IntAdd32, trainTraces)
	if err != nil {
		t.Fatal(err)
	}
	terBased, err := NewTERBased(circuits.IntAdd32, trainTraces, 1)
	if err != nil {
		t.Fatal(err)
	}

	_, accTEVoT, err := EvaluateAll(tevot, testTraces)
	if err != nil {
		t.Fatal(err)
	}
	_, accNH, err := EvaluateAll(tevotNH, testTraces)
	if err != nil {
		t.Fatal(err)
	}
	_, accDelay, err := EvaluateAll(delayBased, testTraces)
	if err != nil {
		t.Fatal(err)
	}
	_, accTER, err := EvaluateAll(terBased, testTraces)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("TEVoT %.4f | NH %.4f | Delay-based %.4f | TER-based %.4f",
		accTEVoT, accNH, accDelay, accTER)

	if accTEVoT < 0.90 {
		t.Errorf("TEVoT accuracy %.4f below 0.90", accTEVoT)
	}
	if accTEVoT <= accDelay {
		t.Errorf("TEVoT (%.4f) should beat Delay-based (%.4f)", accTEVoT, accDelay)
	}
	if accTEVoT+1e-9 < accTER {
		t.Errorf("TEVoT (%.4f) should be at least TER-based (%.4f)", accTEVoT, accTER)
	}
	if accDelay > 0.5 {
		t.Errorf("Delay-based (%.4f) should be pessimistic (predicts all-error)", accDelay)
	}
	if accTEVoT+0.02 < accNH {
		t.Errorf("history features should not hurt: TEVoT %.4f vs NH %.4f", accTEVoT, accNH)
	}
}

func TestTrainRejectsMixedFUs(t *testing.T) {
	u, err := NewFUnit(circuits.IntAdd32)
	if err != nil {
		t.Fatal(err)
	}
	c := cells.Corner{V: 1, T: 25}
	tr, err := Characterize(u, c, workload.RandomInt(51, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Train(circuits.IntMul32, []*Trace{tr}, DefaultConfig()); err == nil {
		t.Error("Train accepted a trace from another FU")
	}
	if _, err := Train(circuits.IntAdd32, nil, DefaultConfig()); err == nil {
		t.Error("Train accepted no traces")
	}
}

func TestDelayBasedRequiresOfflineCorner(t *testing.T) {
	u, err := NewFUnit(circuits.IntAdd32)
	if err != nil {
		t.Fatal(err)
	}
	c := cells.Corner{V: 1, T: 25}
	tr, err := Characterize(u, c, workload.RandomInt(51, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDelayBased(circuits.IntAdd32, []*Trace{tr})
	if err != nil {
		t.Fatal(err)
	}
	other := cells.Corner{V: 0.81, T: 0}
	if _, err := d.Errors(other, tr.Stream, 100); err == nil {
		t.Error("Delay-based answered for an uncharacterized corner")
	}
}

func TestGroundTruthPredictor(t *testing.T) {
	u, err := NewFUnit(circuits.IntAdd32)
	if err != nil {
		t.Fatal(err)
	}
	c := cells.Corner{V: 0.85, T: 50}
	tr, err := Characterize(u, c, workload.RandomInt(101, 3), []float64{500})
	if err != nil {
		t.Fatal(err)
	}
	g := &GroundTruth{Trace: tr}
	ev, err := EvaluateAt(g, tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Accuracy != 1 {
		t.Errorf("ground truth against itself = %v, want 1", ev.Accuracy)
	}
	if _, err := g.Errors(cells.Corner{V: 1, T: 0}, tr.Stream, 500); err == nil {
		t.Error("ground truth answered for wrong corner")
	}
	if _, err := g.Errors(c, tr.Stream, 123); err == nil {
		t.Error("ground truth answered for unknown clock")
	}
}

func TestPredictDelaysConsistency(t *testing.T) {
	u, err := NewFUnit(circuits.IntAdd32)
	if err != nil {
		t.Fatal(err)
	}
	c := cells.Corner{V: 0.9, T: 25}
	s := workload.RandomInt(401, 5)
	tr, err := Characterize(u, c, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Train(circuits.IntAdd32, []*Trace{tr}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	delays, err := m.PredictDelays(c, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(delays) != s.Len()-1 {
		t.Fatalf("got %d delay predictions for %d cycles", len(delays), s.Len()-1)
	}
	// Point API agrees with batch API.
	for _, i := range []int{0, 10, 100} {
		d := m.PredictDelay(c, s.Pairs[i+1], s.Pairs[i])
		if d != delays[i] {
			t.Fatalf("cycle %d: point %v != batch %v", i, d, delays[i])
		}
	}
	// Predicting errors at clock 0 marks everything with positive
	// predicted delay.
	errs, err := m.PredictErrors(c, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range errs {
		if errs[i] != (delays[i] > 0) {
			t.Fatal("PredictErrors inconsistent with PredictDelays")
		}
	}
}

// TestPredictDelaysMatchPointerTrees: the packed walk behind
// PredictDelays and PredictDelay reproduces the pointer trees on the
// float features — the mean of every tree's Predict, added in tree
// order — on every row of a random stream at an untrained corner, with
// and without history.
func TestPredictDelaysMatchPointerTrees(t *testing.T) {
	u, err := NewFUnit(circuits.IntAdd32)
	if err != nil {
		t.Fatal(err)
	}
	var traces []*Trace
	for k, c := range []cells.Corner{{V: 0.9, T: 25}, {V: 0.8, T: 75}} {
		tr, err := Characterize(u, c, workload.RandomInt(301, int64(20+k)), nil)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tr)
	}
	c := cells.Corner{V: 0.85, T: 50}
	s := workload.RandomInt(600, 33)
	for _, history := range []bool{true, false} {
		cfg := DefaultConfig()
		cfg.History = history
		m, err := Train(circuits.IntAdd32, traces, cfg)
		if err != nil {
			t.Fatal(err)
		}
		delays, err := m.PredictDelays(c, s)
		if err != nil {
			t.Fatal(err)
		}
		trees := m.forest.Trees()
		for i, got := range delays {
			cur, prev := s.Pairs[i+1], s.Pairs[i]
			x := features.VectorNH(c, cur)
			if history {
				x = features.Vector(c, cur, prev)
			}
			want := 0.0
			for _, tree := range trees {
				want += tree.Predict(x)
			}
			want /= float64(len(trees))
			if got != want {
				t.Fatalf("history %v cycle %d: PredictDelays %v != pointer trees %v", history, i, got, want)
			}
			if d := m.PredictDelay(c, cur, prev); d != want {
				t.Fatalf("history %v cycle %d: PredictDelay %v != pointer trees %v", history, i, d, want)
			}
		}
	}
}
