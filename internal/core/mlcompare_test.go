package core

import (
	"testing"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/workload"
)

func TestCompareMethods(t *testing.T) {
	u, err := NewFUnit(circuits.IntAdd32)
	if err != nil {
		t.Fatal(err)
	}
	c := cells.Corner{V: 0.85, T: 50}
	train := workload.RandomInt(1201, 31)
	test := workload.RandomInt(601, 32)
	if _, err := u.CalibrateBaseClock(c, train); err != nil {
		t.Fatal(err)
	}
	trTrain, err := CharacterizeWithSpeedups(u, c, train, []float64{0.10})
	if err != nil {
		t.Fatal(err)
	}
	trTest, err := CharacterizeWithSpeedups(u, c, test, []float64{0.10})
	if err != nil {
		t.Fatal(err)
	}
	results, err := CompareMethods([]*Trace{trTrain}, []*Trace{trTest}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d methods, want 4", len(results))
	}
	byName := map[string]MethodResult{}
	for _, r := range results {
		byName[r.Method] = r
		t.Logf("%-4s acc %.4f train %v test %v", r.Method, r.Accuracy, r.TrainTime, r.TestTime)
		if r.Accuracy < 0.5 {
			t.Errorf("%s accuracy %.4f below coin flip", r.Method, r.Accuracy)
		}
	}
	for _, name := range []string{"LR", "KNN", "SVM", "RFC"} {
		if _, ok := byName[name]; !ok {
			t.Errorf("missing method %s", name)
		}
	}
	// The paper's Table II ordering: RFC is the most accurate.
	rfc := byName["RFC"].Accuracy
	for _, name := range []string{"LR", "KNN", "SVM"} {
		if byName[name].Accuracy > rfc+0.01 {
			t.Errorf("%s (%.4f) should not beat RFC (%.4f)", name, byName[name].Accuracy, rfc)
		}
	}
}
