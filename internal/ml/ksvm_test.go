package ml

import (
	"math/rand"
	"testing"
)

func TestKernelSVMLinearlySeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	n := 300
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x := []float64{rng.NormFloat64(), rng.NormFloat64()}
		X[i] = x
		if x[0]+x[1] > 0 {
			y[i] = 1
		}
	}
	m := NewKernelSVM(1, 0, 1)
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range X {
		if m.Predict(X[i]) == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(n); acc < 0.95 {
		t.Errorf("separable accuracy = %v, want >= 0.95", acc)
	}
	if m.NumSupportVectors() == 0 {
		t.Error("no support vectors after training")
	}
}

// TestKernelSVMSolvesXOR: the RBF kernel handles the interaction problem
// that defeats a linear classifier — the reason "SVM" scores well in the
// paper's Table II despite learning no explicit feature interactions.
func TestKernelSVMSolvesXOR(t *testing.T) {
	X, y := synthXOR(300, 41)
	m := NewKernelSVM(5, 1, 2)
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	Xt, yt := synthXOR(150, 42)
	correct := 0
	for i := range Xt {
		if m.Predict(Xt[i]) == yt[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(Xt)); acc < 0.85 {
		t.Errorf("XOR accuracy = %v, want >= 0.85 (RBF kernels model interactions)", acc)
	}
}

func TestKernelSVMRejectsBadLabels(t *testing.T) {
	m := NewKernelSVM(1, 0, 0)
	if err := m.Fit([][]float64{{1}}, []float64{0.5}); err == nil {
		t.Fatal("accepted non-binary label")
	}
	if err := m.Fit(nil, nil); err == nil {
		t.Fatal("accepted empty training set")
	}
}

func TestKernelSVMDeterministic(t *testing.T) {
	X, y := synthXOR(150, 43)
	m1 := NewKernelSVM(1, 1, 7)
	m2 := NewKernelSVM(1, 1, 7)
	if err := m1.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := m2.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for i := range X[:40] {
		if m1.Decision(X[i]) != m2.Decision(X[i]) {
			t.Fatal("same-seed training diverged")
		}
	}
}
