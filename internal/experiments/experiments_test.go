package experiments

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"testing"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/inject"
)

// tinyScale keeps experiment tests fast: one small FU, two corners, one
// speedup, small streams.
func tinyScale() Scale {
	s := Small()
	s.TrainCycles = 700
	s.TestCycles = 400
	s.Corners = []cells.Corner{{V: 0.81, T: 0}, {V: 1.00, T: 100}}
	s.Speedups = []float64{0.10}
	s.Images = 2
	s.ImageSize = 16
	s.AppStreamCap = 600
	s.FUs = []circuits.FU{circuits.IntAdd32}
	return s
}

func TestLabSetup(t *testing.T) {
	lab, err := NewLab(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(lab.Images) != 2 {
		t.Fatalf("lab has %d images", len(lab.Images))
	}
	for _, ds := range Datasets {
		s, err := lab.Stream(circuits.IntAdd32, ds, true)
		if err != nil {
			t.Fatalf("%s train: %v", ds, err)
		}
		if s.Len() < 2 {
			t.Fatalf("%s train stream too short (%d)", ds, s.Len())
		}
		s, err = lab.Stream(circuits.IntAdd32, ds, false)
		if err != nil {
			t.Fatalf("%s test: %v", ds, err)
		}
		if s.Len() < 2 {
			t.Fatalf("%s test stream too short (%d)", ds, s.Len())
		}
	}
	if _, err := lab.Stream(circuits.IntAdd32, "bogus", true); err == nil {
		t.Error("Stream accepted unknown dataset")
	}
}

// TestLabAllFUsHaveAppStreams: every FU gets all three datasets, native
// or converted.
func TestLabAllFUsHaveAppStreams(t *testing.T) {
	s := tinyScale()
	s.FUs = nil // all four
	lab, err := NewLab(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, fu := range circuits.AllFUs {
		for _, ds := range Datasets {
			st, err := lab.Stream(fu, ds, false)
			if err != nil {
				t.Fatalf("%v/%s: %v", fu, ds, err)
			}
			if st.Len() < 2 {
				t.Fatalf("%v/%s: stream too short", fu, ds)
			}
		}
	}
}

func TestFig3ShapeAndPhysics(t *testing.T) {
	lab, err := NewLab(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	corners := []cells.Corner{{V: 0.81, T: 0}, {V: 1.00, T: 0}}
	rows, err := Fig3(lab, corners)
	if err != nil {
		t.Fatal(err)
	}
	// 1 FU × 3 datasets × 2 corners.
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	// Lower voltage → higher mean delay for every dataset.
	byKey := map[string]map[float64]float64{}
	for _, r := range rows {
		if byKey[r.Dataset] == nil {
			byKey[r.Dataset] = map[float64]float64{}
		}
		byKey[r.Dataset][r.Corner.V] = r.MeanDelay
		if r.MeanDelay <= 0 || r.MeanDelay > r.Static {
			t.Errorf("%v/%s: mean delay %v outside (0, static %v]", r.Corner, r.Dataset, r.MeanDelay, r.Static)
		}
	}
	for ds, m := range byKey {
		if m[0.81] <= m[1.00] {
			t.Errorf("%s: delay at 0.81V (%v) should exceed 1.00V (%v)", ds, m[0.81], m[1.00])
		}
	}
	// The paper's observation: the dataset changes the mean dynamic delay
	// dramatically (their INT_ADD shows a 30 % gap between random and
	// application data). Our integer Sobel stream leans the other way —
	// two's-complement negative accumulators produce long carry-ripple
	// runs — so assert the magnitude of the workload effect, not its
	// direction (see EXPERIMENTS.md).
	r, s := byKey[DatasetRandom][0.81], byKey[DatasetSobel][0.81]
	gap := math.Abs(r-s) / math.Max(r, s)
	if gap < 0.10 {
		t.Errorf("random vs sobel mean-delay gap %.1f%%; expected a pronounced workload effect", gap*100)
	}
	checkGolden(t, "fig3_small.golden", fig3Golden(rows))
}

func TestTable3SmallRun(t *testing.T) {
	lab, err := NewLab(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	cells3, err := Table3(lab)
	if err != nil {
		t.Fatal(err)
	}
	// 1 FU × 3 datasets × 4 models.
	if len(cells3) != 12 {
		t.Fatalf("got %d cells, want 12", len(cells3))
	}
	accTEVoT := MeanAccuracy(cells3, "TEVoT")
	accDelay := MeanAccuracy(cells3, "Delay-based")
	accTER := MeanAccuracy(cells3, "TER-based")
	accNH := MeanAccuracy(cells3, "TEVoT-NH")
	t.Logf("TEVoT %.4f | Delay %.4f | TER %.4f | NH %.4f", accTEVoT, accDelay, accTER, accNH)
	if accTEVoT < 0.85 {
		t.Errorf("TEVoT mean accuracy %.4f too low", accTEVoT)
	}
	if accTEVoT <= accDelay {
		t.Errorf("TEVoT (%.4f) should beat Delay-based (%.4f)", accTEVoT, accDelay)
	}
	if math.IsNaN(MeanAccuracy(cells3, "TEVoT")) {
		t.Error("MeanAccuracy returned NaN for present model")
	}
	if !math.IsNaN(MeanAccuracy(cells3, "nope")) {
		t.Error("MeanAccuracy should be NaN for missing model")
	}
	checkGolden(t, "table3_small.golden", table3Golden(cells3))
}

func TestTable2SmallRun(t *testing.T) {
	lab, err := NewLab(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	results, err := Table2(lab)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d methods", len(results))
	}
	for _, r := range results {
		if r.TrainTime < 0 || r.TestTime < 0 {
			t.Errorf("%s: negative times", r.Method)
		}
	}
	checkGolden(t, "table2_small.golden", table2Golden(results))
}

func TestSpeedupClaim(t *testing.T) {
	lab, err := NewLab(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Speedup(lab, circuits.IntAdd32)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sim %v/cycle, predict %v/cycle, speedup %.1fx", res.SimPerCycle, res.PredPerCycle, res.Speedup)
	// On the smallest FU the gap is narrowest; still expect inference to
	// win clearly. (The paper's 100x is against multi-thousand-gate FUs.)
	if res.Speedup < 1 {
		t.Errorf("TEVoT inference (%v) should beat simulation (%v)", res.PredPerCycle, res.SimPerCycle)
	}
	if _, err := Speedup(lab, circuits.FPMul32); err == nil {
		t.Error("Speedup answered for an unbuilt FU")
	}
}

// table4Small builds the quality-study lab and runs Table4 on it once per
// test binary; TestTable4AndFig4Small, TestQualityStudySmall and
// TestQualityMissingFU share the result, so the study is simulated once.
var table4Small = sync.OnceValues(func() (table4Run, error) {
	s := tinyScale()
	s.FUs = nil // quality study needs all four FUs across both apps
	s.TrainCycles = 500
	s.AppStreamCap = 400
	s.Images = 2
	lab, err := NewLab(s)
	if err != nil {
		return table4Run{}, err
	}
	rows, err := Table4(lab)
	if err != nil {
		return table4Run{}, err
	}
	if len(rows) != 2 || rows[0].App != inject.SobelApp || rows[1].App != inject.GaussApp {
		return table4Run{}, fmt.Errorf("got %d rows, want Sobel then Gauss", len(rows))
	}
	return table4Run{lab, rows}, nil
})

type table4Run struct {
	lab  *Lab
	rows []Table4Row
}

func TestTable4AndFig4Small(t *testing.T) {
	run, err := table4Small()
	if err != nil {
		t.Fatal(err)
	}
	lab, rows := run.lab, run.rows
	sobel := rows[0].Models
	for _, fu := range inject.SobelApp.FUs() {
		var names []string
		for _, m := range sobel[fu] {
			names = append(names, m.Name())
		}
		if !slices.Equal(names, paperModels) {
			t.Fatalf("Sobel's %v models are %v; want %v", fu, names, paperModels)
		}
	}
	outputs, err := Fig4(lab, sobel)
	if err != nil {
		t.Fatal(err)
	}
	if len(outputs) != 5 { // ground truth + 4 models
		t.Fatalf("Fig4 produced %d outputs, want 5", len(outputs))
	}
	for _, o := range outputs {
		if o.Image == nil {
			t.Fatalf("%s: nil image", o.Model)
		}
	}
	checkGolden(t, "table4_fig4_small.golden", table4Golden(rows, outputs))
}

func TestQualityStudySmall(t *testing.T) {
	run, err := table4Small()
	if err != nil {
		t.Fatal(err)
	}
	lab, rows := run.lab, run.rows
	s := lab.Scale
	for _, row := range rows {
		for _, model := range paperModels {
			acc, ok := row.Accuracy[model]
			if !ok {
				t.Fatalf("%v: missing model %s", row.App, model)
			}
			if acc < 0 || acc > 1 {
				t.Fatalf("%v/%s: accuracy %v", row.App, model, acc)
			}
		}
		t.Logf("%v: %v", row.App, row.Accuracy)
		if want := len(s.Corners) * len(s.Speedups) * s.Images; len(row.Points) != want {
			t.Fatalf("%v: %d points, want %d (corners x speedups x images)", row.App, len(row.Points), want)
		}
		for _, pt := range row.Points {
			if pt.TruePSNR < 0 {
				t.Errorf("%v: negative ground-truth PSNR %v", row.App, pt.TruePSNR)
			}
			for _, model := range paperModels {
				if _, ok := pt.PSNR[model]; !ok {
					t.Errorf("%v: point missing %s PSNR", row.App, model)
				}
			}
		}
	}
}

func TestQualityMissingFU(t *testing.T) {
	run, err := table4Small()
	if err != nil {
		t.Fatal(err)
	}
	lab, rows := run.lab, run.rows
	for _, fu := range inject.SobelApp.FUs() {
		partial := maps.Clone(rows[0].Models)
		delete(partial, fu)
		if _, err := Fig4(lab, partial); err == nil {
			t.Errorf("Fig4 accepted a model set without %v", fu)
		}
		if _, err := table4Row(lab, inject.SobelApp, partial); err == nil {
			t.Errorf("the quality study accepted a model set without %v", fu)
		}
	}
}

func TestQualityStudyValidation(t *testing.T) {
	lab := &Lab{Scale: tinyScale()}
	if _, err := table4Row(lab, inject.SobelApp, nil); err == nil {
		t.Error("the quality study accepted a lab without images")
	}
}
