package core

import (
	"fmt"
	"math/rand"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/workload"
)

// ErrorPredictor is the interface all error models share: classify every
// cycle of a stream at one corner and clock period. It is what the
// evaluation harness and the quality study consume, so TEVoT and the
// baselines are interchangeable there.
type ErrorPredictor interface {
	// Name is the model's reporting label ("TEVoT", "Delay-based", ...).
	Name() string
	// Errors classifies each of the stream's s.Len()-1 cycles.
	Errors(corner cells.Corner, s *workload.Stream, tclk float64) ([]bool, error)
}

// Name implements ErrorPredictor for the TEVoT model.
func (m *Model) Name() string {
	if m.History {
		return "TEVoT"
	}
	return "TEVoT-NH"
}

// Errors implements ErrorPredictor for the TEVoT model.
func (m *Model) Errors(corner cells.Corner, s *workload.Stream, tclk float64) ([]bool, error) {
	return m.PredictErrors(corner, s, tclk)
}

// DelayBased is the paper's first baseline (from instruction-level
// models and HFG): predict a timing error whenever the clock period does
// not cover the maximum delay measured offline at the operating
// condition. It knows nothing about the input workload, so any
// clock speedup makes it predict an error on every cycle.
type DelayBased struct {
	fu  circuits.FU
	max map[cells.Corner]float64
}

// NewDelayBased builds the baseline from offline characterization
// traces: the per-corner maximum observed dynamic delay.
func NewDelayBased(fu circuits.FU, offline []*Trace) (*DelayBased, error) {
	if len(offline) == 0 {
		return nil, fmt.Errorf("core: Delay-based baseline needs offline traces")
	}
	m := make(map[cells.Corner]float64)
	for _, tr := range offline {
		if tr.FU != fu {
			return nil, fmt.Errorf("core: trace for %v mixed into %v baseline", tr.FU, fu)
		}
		if tr.MaxDelay > m[tr.Corner] {
			m[tr.Corner] = tr.MaxDelay
		}
	}
	return &DelayBased{fu: fu, max: m}, nil
}

// Name implements ErrorPredictor.
func (d *DelayBased) Name() string { return "Delay-based" }

// Errors implements ErrorPredictor: every cycle gets the same verdict.
func (d *DelayBased) Errors(corner cells.Corner, s *workload.Stream, tclk float64) ([]bool, error) {
	max, ok := d.max[corner]
	if !ok {
		return nil, fmt.Errorf("core: Delay-based baseline has no offline data for %v", corner)
	}
	out := make([]bool, s.Len()-1)
	if tclk < max {
		for i := range out {
			out[i] = true
		}
	}
	return out, nil
}

// TERBased is the paper's second baseline (EnerJ / Truffle style):
// errors are injected with a fixed probability equal to the timing-error
// rate measured during offline simulation at the same condition and
// clock. It uses no information from the actual test inputs.
type TERBased struct {
	fu   circuits.FU
	ters map[terKey]float64
	seed int64
}

type terKey struct {
	corner cells.Corner
	clock  float64
}

// NewTERBased builds the baseline from offline traces characterized at
// the clock periods of interest.
func NewTERBased(fu circuits.FU, offline []*Trace, seed int64) (*TERBased, error) {
	if len(offline) == 0 {
		return nil, fmt.Errorf("core: TER-based baseline needs offline traces")
	}
	t := &TERBased{fu: fu, ters: make(map[terKey]float64), seed: seed}
	for _, tr := range offline {
		if tr.FU != fu {
			return nil, fmt.Errorf("core: trace for %v mixed into %v baseline", tr.FU, fu)
		}
		for k, clock := range tr.ClockPeriods {
			t.ters[terKey{tr.Corner, clock}] = tr.TER(k)
		}
	}
	return t, nil
}

// Name implements ErrorPredictor.
func (t *TERBased) Name() string { return "TER-based" }

// TER looks up the offline rate for a corner and clock.
func (t *TERBased) TER(corner cells.Corner, tclk float64) (float64, error) {
	ter, ok := t.ters[terKey{corner, tclk}]
	if !ok {
		return 0, fmt.Errorf("core: TER-based baseline has no offline rate for %v at %.3f ps", corner, tclk)
	}
	return ter, nil
}

// Errors implements ErrorPredictor: Bernoulli draws at the offline rate,
// deterministic for a fixed seed.
func (t *TERBased) Errors(corner cells.Corner, s *workload.Stream, tclk float64) ([]bool, error) {
	ter, err := t.TER(corner, tclk)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(t.seed ^ int64(s.Len())))
	out := make([]bool, s.Len()-1)
	for i := range out {
		out[i] = rng.Float64() < ter
	}
	return out, nil
}
