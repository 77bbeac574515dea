package core

import (
	"fmt"

	"tevot/internal/ml"
)

// Evaluation is one model's score on one (trace, clock) combination.
type Evaluation struct {
	Model    string
	Clock    float64 // ps
	Accuracy float64 // Eq. 4: matched cycles / total cycles
	TERTrue  float64 // ground-truth timing-error rate
	TERPred  float64 // predicted timing-error rate
}

// EvaluateAt scores a predictor against the ground truth recorded in a
// characterization trace at clock index k — the paper's Eq. 4.
func EvaluateAt(p ErrorPredictor, tr *Trace, k int) (Evaluation, error) {
	if k < 0 || k >= len(tr.ClockPeriods) {
		return Evaluation{}, fmt.Errorf("core: clock index %d out of range (%d clocks)", k, len(tr.ClockPeriods))
	}
	pred, err := p.Errors(tr.Corner, tr.Stream, tr.ClockPeriods[k])
	if err != nil {
		return Evaluation{}, err
	}
	return score(p.Name(), tr, k, pred)
}

// score compares predicted verdicts with tr's ground truth at clock
// index k.
func score(model string, tr *Trace, k int, pred []bool) (Evaluation, error) {
	acc, err := ml.AccuracyBool(pred, tr.Errors[k])
	if err != nil {
		return Evaluation{}, err
	}
	np := 0
	for _, e := range pred {
		if e {
			np++
		}
	}
	return Evaluation{
		Model:    model,
		Clock:    tr.ClockPeriods[k],
		Accuracy: acc,
		TERTrue:  tr.TER(k),
		TERPred:  float64(np) / float64(len(pred)),
	}, nil
}

// EvaluateAll scores a predictor across every clock of every trace and
// returns the flat list plus the mean accuracy — the aggregation behind
// each cell of the paper's Table III (averaged over operating conditions
// and clock speeds).
//
// A TEVoT *Model predicts each trace's delays once and compares them
// with every clock (the paper's Eq. 2, what Model.Errors does per
// clock); other predictors are asked for each clock's verdicts.
func EvaluateAll(p ErrorPredictor, traces []*Trace) ([]Evaluation, float64, error) {
	m, _ := p.(*Model)
	var evals []Evaluation
	var pred []bool
	sum := 0.0
	for _, tr := range traces {
		var delays []float64
		if m != nil && len(tr.ClockPeriods) > 0 {
			var err error
			if delays, err = m.PredictDelays(tr.Corner, tr.Stream); err != nil {
				return nil, 0, err
			}
		}
		for k := range tr.ClockPeriods {
			var ev Evaluation
			var err error
			if delays != nil {
				pred = errorsAt(pred[:0], delays, tr.ClockPeriods[k])
				ev, err = score(p.Name(), tr, k, pred)
			} else {
				ev, err = EvaluateAt(p, tr, k)
			}
			if err != nil {
				return nil, 0, err
			}
			evals = append(evals, ev)
			sum += ev.Accuracy
		}
	}
	if len(evals) == 0 {
		return nil, 0, fmt.Errorf("core: nothing to evaluate")
	}
	return evals, sum / float64(len(evals)), nil
}
