package serve

import (
	"context"
	"testing"
)

// TestAuditGroundTruth runs the startup audit end to end on a trained
// model: it must simulate the requested cycles, produce a finite RMSE,
// and report the memo hit rate of the simulation it ran.
func TestAuditGroundTruth(t *testing.T) {
	m := trainedModel(t)
	rep, err := Audit(context.Background(), m, AuditConfig{Cycles: 96, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || rep.Cycles != 96 {
		t.Fatalf("audit report %+v, want 96 cycles", rep)
	}
	if !(rep.RMSE >= 0) || rep.MeanTrue <= 0 {
		t.Fatalf("degenerate audit numbers: %+v", rep)
	}
	if rep.HitRate < 0 || rep.HitRate > 1 {
		t.Fatalf("hit rate out of range: %+v", rep)
	}
	if rep.SimEvents <= 0 {
		t.Fatalf("no simulation effort recorded: %+v", rep)
	}

	// Disabled audit is a no-op.
	if rep, err := Audit(context.Background(), m, AuditConfig{}); err != nil || rep != nil {
		t.Fatalf("disabled audit returned (%+v, %v)", rep, err)
	}
}
