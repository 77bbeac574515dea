package ml

import "fmt"

// Accuracy is the fraction of equal entries between predicted and true
// class labels — the paper's Eq. 4 "prediction accuracy".
func Accuracy(pred, truth []float64) (float64, error) {
	if len(pred) != len(truth) {
		return 0, fmt.Errorf("ml: %d predictions for %d labels", len(pred), len(truth))
	}
	if len(pred) == 0 {
		return 0, fmt.Errorf("ml: empty prediction set")
	}
	match := 0
	for i := range pred {
		if pred[i] == truth[i] {
			match++
		}
	}
	return float64(match) / float64(len(pred)), nil
}

// AccuracyBool is Accuracy over boolean outcomes.
func AccuracyBool(pred, truth []bool) (float64, error) {
	if len(pred) != len(truth) {
		return 0, fmt.Errorf("ml: %d predictions for %d labels", len(pred), len(truth))
	}
	if len(pred) == 0 {
		return 0, fmt.Errorf("ml: empty prediction set")
	}
	match := 0
	for i := range pred {
		if pred[i] == truth[i] {
			match++
		}
	}
	return float64(match) / float64(len(pred)), nil
}

// MSE is the mean squared error of a regression prediction.
func MSE(pred, truth []float64) (float64, error) {
	if len(pred) != len(truth) || len(pred) == 0 {
		return 0, fmt.Errorf("ml: bad MSE operand lengths %d, %d", len(pred), len(truth))
	}
	s := 0.0
	for i := range pred {
		d := pred[i] - truth[i]
		s += d * d
	}
	return s / float64(len(pred)), nil
}
