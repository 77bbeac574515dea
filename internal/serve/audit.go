package serve

import (
	"context"
	"fmt"
	"math"
	"time"

	"tevot/internal/cells"
	"tevot/internal/core"
	"tevot/internal/obs"
	"tevot/internal/workload"
)

// Startup ground-truth audit: before the server takes traffic, it can
// run the gate-level simulator over a short random stream at a reference
// corner and compare the loaded model's predicted delays against the
// simulated truth — an end-to-end check that the model actually
// describes the unit it claims to, beyond the structural validation of
// the reload path.

// AuditConfig tunes the startup ground-truth audit.
type AuditConfig struct {
	// Cycles is the audited stream length; <= 0 disables the audit.
	Cycles int
	// Corner is the operating point simulated; the zero value selects a
	// mid-grid default (0.90 V, 25 °C).
	Corner cells.Corner
	// Seed drives the random operand stream.
	Seed int64
}

// AuditReport summarizes a ground-truth audit.
type AuditReport struct {
	Cycles    int
	Corner    cells.Corner
	RMSE      float64 // prediction error vs simulated delay, ps
	MeanTrue  float64 // mean simulated dynamic delay, ps
	MeanPred  float64 // mean predicted dynamic delay, ps
	HitRate   float64 // transition-memo hit rate of the simulation
	Elapsed   time.Duration
	SimEvents int
}

// Audit simulates cfg.Cycles random transitions through the model's
// functional unit and reports how far the model's delay predictions sit
// from the gate-level truth. It returns (nil, nil) when disabled.
func Audit(ctx context.Context, m *core.Model, cfg AuditConfig) (*AuditReport, error) {
	if cfg.Cycles <= 0 {
		return nil, nil
	}
	corner := cfg.Corner
	if corner.V == 0 {
		corner = cells.Corner{V: 0.90, T: 25}
	}
	u, err := core.NewFUnit(m.FU)
	if err != nil {
		return nil, fmt.Errorf("serve: audit cannot build %v: %w", m.FU, err)
	}
	s := workload.Random(m.FU.IsFloat(), cfg.Cycles+1, cfg.Seed)
	s.Name = "serve_audit"
	start := time.Now()
	tr, err := core.CharacterizeOptsContext(ctx, u, corner, s, nil, core.CharacterizeOptions{Workers: 1})
	if err != nil {
		return nil, fmt.Errorf("serve: audit simulation failed: %w", err)
	}
	pred, err := m.PredictDelays(corner, s)
	if err != nil {
		return nil, fmt.Errorf("serve: audit prediction failed: %w", err)
	}
	rep := &AuditReport{
		Cycles:    tr.Cycles(),
		Corner:    corner,
		HitRate:   tr.HitRate(),
		Elapsed:   time.Since(start),
		SimEvents: tr.Events,
	}
	var se float64
	for i, d := range tr.Delays {
		rep.MeanTrue += d
		rep.MeanPred += pred[i]
		se += (pred[i] - d) * (pred[i] - d)
	}
	n := float64(len(tr.Delays))
	rep.MeanTrue /= n
	rep.MeanPred /= n
	rep.RMSE = math.Sqrt(se / n)
	obs.Logger("serve").Info("startup ground-truth audit",
		"fu", m.FU.String(), "corner", corner.String(), "cycles", rep.Cycles,
		"rmse_ps", rep.RMSE, "mean_true_ps", rep.MeanTrue, "mean_pred_ps", rep.MeanPred,
		"memo_hit_rate", rep.HitRate, "elapsed", rep.Elapsed)
	return rep, nil
}
