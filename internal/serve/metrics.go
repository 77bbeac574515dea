package serve

import "tevot/internal/obs"

// Serving metrics, published through the obs default registry (the
// /metrics Prometheus exposition on the serve and -debug-addr
// listeners, and the run manifest). The accounting identity the smoke
// harness asserts: every /v1/predict request lands in exactly one
// outcome counter, so
//
//	requests == served + shed + timeouts + canceled + bad_requests
//	            + internal_errors
//
// The identity holds twice over: on the aggregate serve.* counters and
// on each functional unit's serve.fu.<FU>.* set (a request routed to a
// unit is counted in both; a request for an unknown FU is counted only
// in the aggregate, under bad_requests, plus serve.unknown_fu).
//
// serve.panics counts panic *events* (worker or handler goroutine); a
// worker panic surfaces to its batch as internal_errors, so panics ride
// alongside the identity rather than inside it.
var (
	mRequests  = obs.NewCounter("serve.requests")
	mServed    = obs.NewCounter("serve.served")
	mShed      = obs.NewCounter("serve.shed")
	mTimeouts  = obs.NewCounter("serve.timeouts")
	mCanceled  = obs.NewCounter("serve.canceled")
	mBad       = obs.NewCounter("serve.bad_requests")
	mInternal  = obs.NewCounter("serve.internal_errors")
	mPanics    = obs.NewCounter("serve.panics")
	mReloadOK  = obs.NewCounter("serve.reloads_ok")
	mReloadBad = obs.NewCounter("serve.reloads_failed")
	mUnknownFU = obs.NewCounter("serve.unknown_fu")

	// Bodies outside the canonical form, decoded by encoding/json
	// instead of the one-pass parser (decode.go): traffic that misses
	// the fast path, malformed bodies included.
	mDecodeFallback = obs.NewCounter("serve.decode_fallback")

	// Coalescer accounting: one flush-reason counter per flush, one
	// batch_expired per request answered dead-in-queue (its context
	// expired before the flush, so it is removed from the batch instead
	// of paying inference for a gone caller).
	mFlushIdle    = obs.NewCounter("serve.flush_idle")
	mFlushSize    = obs.NewCounter("serve.flush_size")
	mFlushRows    = obs.NewCounter("serve.flush_rows")
	mBatchExpired = obs.NewCounter("serve.batch_expired")

	gQueueDepth = obs.NewGauge("serve.queue_depth")
	gGeneration = obs.NewGauge("serve.model_generation")
	gDraining   = obs.NewGauge("serve.draining")

	// End-to-end request latency (admission to response), the serving
	// SLO histogram: p50/p95/p99 land in the manifest snapshot and the
	// cumulative buckets in the /metrics exposition.
	hRequestSec = obs.NewHistogram("serve.request_seconds", []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
		0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	})
	// Queue wait: admission to flush, the latency cost of coalescing.
	hQueueWaitSec = obs.NewHistogram("serve.queue_wait_seconds", []float64{
		0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005, 0.001,
		0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1,
	})
	// Inference time of one coalesced forest call (shared by every
	// request in the batch).
	hInferSec = obs.NewHistogram("serve.inference_seconds", []float64{
		0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005, 0.001,
		0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1,
	})
	// Batch shape distributions: requests and predicted cycles per flush.
	hBatchItems = obs.NewHistogram("serve.batch_items", []float64{
		1, 2, 4, 8, 16, 32, 64, 128, 256,
	})
	hBatchRows = obs.NewHistogram("serve.batch_rows", []float64{
		1, 4, 16, 64, 256, 1024, 4096, 16384, 65536,
	})
)

// outcomeSet is one accounting-identity counter family. The package
// aggregate uses the plain serve.* names; each functional unit gets its
// own serve.fu.<FU>.* set so the identity is checkable per shard.
type outcomeSet struct {
	requests *obs.Counter
	served   *obs.Counter
	shed     *obs.Counter
	timeouts *obs.Counter
	canceled *obs.Counter
	bad      *obs.Counter
	internal *obs.Counter
}

func newOutcomeSet(prefix string) outcomeSet {
	return outcomeSet{
		requests: obs.NewCounter(prefix + ".requests"),
		served:   obs.NewCounter(prefix + ".served"),
		shed:     obs.NewCounter(prefix + ".shed"),
		timeouts: obs.NewCounter(prefix + ".timeouts"),
		canceled: obs.NewCounter(prefix + ".canceled"),
		bad:      obs.NewCounter(prefix + ".bad_requests"),
		internal: obs.NewCounter(prefix + ".internal_errors"),
	}
}

var aggregate = outcomeSet{
	requests: mRequests, served: mServed, shed: mShed, timeouts: mTimeouts,
	canceled: mCanceled, bad: mBad, internal: mInternal,
}
