package runner

import (
	"sync/atomic"
	"time"

	"tevot/internal/obs"
)

// Observability: the runner maintains cumulative metrics in the obs
// registry (visible at /metrics and in the run manifest) plus a live
// per-sweep progress view served by the CLIs' -debug-addr /progress
// route — which corner cells are done or failed, and an ETA
// extrapolated from the trailing cell-latency histogram.
var (
	mCellsTotal    = obs.NewCounter("runner.cells_total")
	mCellsOK       = obs.NewCounter("runner.cells_ok")
	mCellsFailed   = obs.NewCounter("runner.cells_failed")
	mCellsResumed  = obs.NewCounter("runner.cells_resumed")
	mAttempts      = obs.NewCounter("runner.attempts")
	mPanics        = obs.NewCounter("runner.panics")
	mTimeouts      = obs.NewCounter("runner.timeouts")
	mCkptFlushes   = obs.NewCounter("runner.checkpoint_flushes")
	mCkptTornTails = obs.NewCounter("runner.checkpoint_torn_tails")
	hCellSeconds   = obs.NewHistogram("runner.cell_seconds", obs.DurationBuckets)
)

// progressState is the live state of the most recent sweep; counters
// are atomics so workers update them without coordination.
type progressState struct {
	sweep   string
	total   int64
	workers int64
	start   time.Time

	resumed   atomic.Int64
	done      atomic.Int64
	failed    atomic.Int64
	running   atomic.Int64
	sumCellNs atomic.Int64
	finished  atomic.Bool
}

// liveSweep points at the most recent sweep's state (nil before any
// sweep runs in the process). The pointer swap is the only write
// coordination needed: a /progress reader either sees the old sweep's
// final state or the new one's live state.
var liveSweep atomic.Pointer[progressState]

// Progress is the /progress JSON document. All durations are seconds.
type Progress struct {
	// Status is "idle" (no sweep yet), "running", or "done".
	Status  string `json:"status"`
	Sweep   string `json:"sweep,omitempty"`
	Workers int    `json:"workers,omitempty"`

	Total   int `json:"total"`
	Resumed int `json:"resumed"`
	Done    int `json:"done"`
	Failed  int `json:"failed"`
	Running int `json:"running"`

	ElapsedSec  float64 `json:"elapsed_sec"`
	CellsPerSec float64 `json:"cells_per_sec"`
	MeanCellSec float64 `json:"mean_cell_sec"`
	P50CellSec  float64 `json:"p50_cell_sec"`
	P95CellSec  float64 `json:"p95_cell_sec"`
	// ETASec extrapolates the remaining cells from the trailing mean
	// cell latency across the worker pool (0 when unknown or done).
	ETASec float64 `json:"eta_sec"`
}

// LiveProgress snapshots the most recent sweep for the /progress
// endpoint. It is safe to call from any goroutine at any time.
func LiveProgress() any {
	st := liveSweep.Load()
	if st == nil {
		return Progress{Status: "idle"}
	}
	done := int(st.done.Load())
	failed := int(st.failed.Load())
	resumed := int(st.resumed.Load())
	p := Progress{
		Status:     "running",
		Sweep:      st.sweep,
		Workers:    int(st.workers),
		Total:      int(st.total),
		Resumed:    resumed,
		Done:       done,
		Failed:     failed,
		Running:    int(st.running.Load()),
		ElapsedSec: time.Since(st.start).Seconds(),
		P50CellSec: hCellSeconds.Quantile(0.50),
		P95CellSec: hCellSeconds.Quantile(0.95),
	}
	if st.finished.Load() {
		p.Status = "done"
	}
	executed := done + failed
	if executed > 0 {
		p.MeanCellSec = float64(st.sumCellNs.Load()) / 1e9 / float64(executed)
		p.CellsPerSec = float64(executed) / p.ElapsedSec
	}
	remaining := int(st.total) - resumed - executed
	if remaining > 0 && p.MeanCellSec > 0 && p.Status == "running" {
		w := float64(st.workers)
		if w < 1 {
			w = 1
		}
		p.ETASec = float64(remaining) * p.MeanCellSec / w
	}
	return p
}
