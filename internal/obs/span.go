package obs

import "time"

// Stage spans record the wall time of one pipeline stage execution
// (netlist build → STA → SDF → gate-sim shards → feature extraction →
// forest fit/predict) into the default registry's histogram
// stage.<name>.seconds, exported on /metrics as
// tevot_stage_<name>_seconds and in run.json under
// metrics.histograms. That is the question an operator asks of an
// hours-long sweep — "where is the time going?" — answered with
// count, sum, max and quantiles, without the storage of an event trace.

// Time starts a pipeline-stage span. The returned func ends it and
// observes the elapsed seconds into the stage's histogram:
//
//	defer obs.Time("sta.analyze")()
//
// End funcs are single-use.
func Time(name string) func() {
	h := NewHistogram("stage."+name+".seconds", DurationBuckets)
	start := time.Now()
	return func() { h.Observe(time.Since(start).Seconds()) }
}
