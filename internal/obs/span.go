package obs

import (
	"context"
	"time"

	"tevot/internal/obs/trace"
)

// Stage spans record the wall time of one pipeline stage execution
// (netlist build → STA → SDF → gate-sim shards → feature extraction →
// forest fit/predict) into the default registry's histogram
// stage.<name>.seconds, exported on /metrics as
// tevot_stage_<name>_seconds and in run.json under
// metrics.histograms. That is the question an operator asks of an
// hours-long sweep — "where is the time going?" — answered with
// count, sum, max and quantiles, without the storage of an event trace.
//
// Span is also trace-aware: when the context carries a request-scoped
// trace span (serve request, dist cell), Span opens a child span under
// it and returns the derived context, so per-request traces get
// dta.simulate/dta.merge children for free at the same call sites.
// With no span in the context the trace side is a nil no-op.

// Span starts a pipeline-stage span. The returned func ends it and
// observes the elapsed seconds into the stage's histogram:
//
//	ctx, end := obs.Span(ctx, "sta.analyze")
//	defer end()
//
// When ctx carries a request-scoped trace span, the returned context
// additionally carries a child trace span of the same name, ended by
// the same end func. Cancellation is the caller's business. End funcs
// are single-use.
func Span(ctx context.Context, name string) (context.Context, func()) {
	h := NewHistogram("stage."+name+".seconds", DurationBuckets)
	ctx, tsp := trace.Child(ctx, name)
	start := time.Now()
	return ctx, func() {
		tsp.End()
		h.Observe(time.Since(start).Seconds())
	}
}

// Time is Span without a context, for call sites that have none.
func Time(name string) func() {
	_, end := Span(context.Background(), name)
	return end
}
