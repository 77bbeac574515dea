package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tevot/internal/cells"
	"tevot/internal/ml"
	"tevot/internal/obs"
	"tevot/internal/workload"
)

// The request coalescer. Each /v1/predict call admits one batchItem
// into its functional unit's queue, a buffered channel QueueDepth deep,
// and every worker of the unit blocks on that channel. The first
// request wakes a worker, which then takes whatever is already queued
// behind it with non-blocking receives, stopping when the queue is
// empty (flush reason idle) or a cap is reached (BatchSize requests,
// size; MaxBatchRows predicted cycles, rows), and flushes. The policy is
// work-conserving: a request never waits while a worker is free, so
// riders accumulate only while every worker is busy, and the next
// worker to free takes them together. One flush runs one forest call
// over every live item's feature rows (each item keeps its own
// operating corner; rows are packed contiguously) and scatters the
// delays back, so under load the amortized cost per request approaches
// the SoA batch path's per-row cost instead of paying per-call overhead
// and a worker round trip per request.
//
// Ownership protocol: the handler owns an item until admit() succeeds;
// from then the coalescer owns it until it signals done (buffered, so
// a flush never blocks on a handler that stopped listening). A handler
// that gives up early (deadline, client gone) simply abandons the item
// — it is never recycled, so the flusher can still write into it.

// flushReason says what triggered a batch flush; it is returned to
// every rider in the batch and counted per reason.
type flushReason string

const (
	flushIdleReason flushReason = "idle" // the queue emptied before a cap
	flushSizeReason flushReason = "size" // BatchSize requests taken
	flushRowsReason flushReason = "rows" // MaxBatchRows predicted cycles taken
)

func (r flushReason) counter() *obs.Counter {
	switch r {
	case flushSizeReason:
		return mFlushSize
	case flushRowsReason:
		return mFlushRows
	default:
		return mFlushIdle
	}
}

// batchItem is one admitted request's slot in the queue, then in a
// worker's batch. The result fields are written by the flushing worker
// before done is signalled and must not be read before then.
type batchItem struct {
	ctx      context.Context
	corner   cells.Corner
	pairs    []workload.OperandPair
	rows     int // len(pairs)-1 predicted cycles
	queuedAt time.Time

	// Results, owned by the flusher until done fires.
	delays     []float64 // reused across recycles; len rows after flush
	gen        int64     // model generation the flush served from
	flushedAt  time.Time
	inferUS    int64 // microseconds of the shared forest call
	batchItems int   // live requests in the flushed batch
	batchRows  int   // predicted cycles in the flushed batch
	reason     flushReason
	err        error
	done       chan struct{} // buffered(1): flusher never blocks on a gone handler
}

// finish hands the item back to whoever is (maybe) waiting on it.
func (it *batchItem) finish(err error) {
	it.err = err
	it.done <- struct{}{}
}

// batch is the set of items one worker takes and flushes. Each worker
// reuses a single batch, so the steady state allocates nothing.
type batch struct {
	items  []*batchItem
	rows   int
	reason flushReason
}

// unit is one functional unit's serving shard: its own model state,
// admission queue, and worker slice behind the shared mux.
type unit struct {
	srv   *Server
	fu    string // model FU name; also the /v1/predict/{fu} route key
	state atomic.Pointer[modelState]

	met    outcomeSet // serve.fu.<FU>.* counters
	gQueue *obs.Gauge
	gGen   *obs.Gauge

	queue     chan *batchItem // admission: handlers → workers, QueueDepth deep
	workers   int
	lastFlush atomic.Int64 // duration of the latest completed flush, ns (Retry-After)
	reloadMu  sync.Mutex   // serializes this unit's hot-reloads
}

func newUnit(s *Server, st *modelState, workers int) *unit {
	fu := st.model.FU.String()
	u := &unit{
		srv:     s,
		fu:      fu,
		met:     newOutcomeSet("serve.fu." + fu),
		gQueue:  obs.NewGauge("serve.fu." + fu + ".queue_depth"),
		gGen:    obs.NewGauge("serve.fu." + fu + ".model_generation"),
		queue:   make(chan *batchItem, s.cfg.QueueDepth),
		workers: workers,
	}
	u.state.Store(st)
	u.gGen.Set(float64(st.generation))
	u.gQueue.Set(0)
	return u
}

// admit queues the item, or reports the unit is full (the caller sheds
// with 429). The bound is the channel's capacity: it counts the
// requests waiting for a worker, not those a worker has already taken.
func (u *unit) admit(it *batchItem) bool {
	it.queuedAt = time.Now()
	select {
	case u.queue <- it:
		u.setDepthGauges()
		return true
	default:
		return false
	}
}

// setDepthGauges publishes the unit's and the server's queue depths.
func (u *unit) setDepthGauges() {
	u.gQueue.Set(float64(len(u.queue)))
	gQueueDepth.Set(float64(u.srv.queued()))
}

// worker serves the unit's queue until Close: it blocks for the first
// request, takes whatever is queued behind it, and flushes the batch.
// Each worker owns one batch and one buffer set, so steady-state
// coalesced inference allocates nothing.
func (u *unit) worker() {
	defer u.srv.wg.Done()
	var buf workerBuf
	b := &batch{items: make([]*batchItem, 0, u.srv.cfg.BatchSize)}
	for {
		select {
		case <-u.srv.stopCh:
			u.refuseQueued()
			return
		case it := <-u.queue:
			// The select picks at random among ready cases, so a stop
			// that raced this receive must still win over queued work.
			if u.srv.stopped() {
				it.finish(errDraining)
				u.refuseQueued()
				return
			}
			u.take(b, it)
			u.setDepthGauges()
			t0 := time.Now()
			u.flush(&buf, b)
			u.lastFlush.Store(int64(time.Since(t0)))
			clear(b.items[:cap(b.items)]) // let abandoned items be collected
			b.items, b.rows = b.items[:0], 0
		}
	}
}

// take fills b with it and whatever is already queued behind it. These
// receives never block, so a batch never waits for riders: it closes
// when the queue is empty (idle) or a cap is reached (size, rows), and
// the rest of the queue is left to the next worker.
func (u *unit) take(b *batch, it *batchItem) {
	cfg := &u.srv.cfg
	for {
		b.items = append(b.items, it)
		b.rows += it.rows
		switch {
		case len(b.items) >= cfg.BatchSize:
			b.reason = flushSizeReason
			return
		case b.rows >= cfg.MaxBatchRows:
			b.reason = flushRowsReason
			return
		}
		select {
		case it = <-u.queue:
		default:
			b.reason = flushIdleReason
			return
		}
	}
}

// refuseQueued answers every request still queued with errDraining
// (429 draining) without flushing it: after Close, queued work is
// refused so its handlers respond now.
func (u *unit) refuseQueued() {
	for {
		select {
		case it := <-u.queue:
			it.finish(errDraining)
		default:
			u.setDepthGauges()
			return
		}
	}
}

// flush is the coalesced inference: sweep dead items, pack every live
// item's feature rows (each at its own corner) into one contiguous
// block, run one forest call, scatter the delays back with the batch's
// timing breakdown attached.
func (u *unit) flush(buf *workerBuf, b *batch) {
	flushedAt := time.Now()
	b.reason.counter().Inc()

	// Deadline sweep: a request whose context expired while queued is
	// answered now (the handler maps the error to 503/canceled) and
	// removed from the batch instead of paying inference for a caller
	// that is already gone. Compaction reuses the items slice in place.
	live := b.items[:0]
	rows := 0
	for _, it := range b.items {
		if err := it.ctx.Err(); err != nil {
			mBatchExpired.Inc()
			it.finish(err)
			continue
		}
		live = append(live, it)
		rows += it.rows
	}
	b.items = live
	if len(live) == 0 {
		return
	}
	hBatchItems.Observe(float64(len(live)))
	hBatchRows.Observe(float64(rows))

	// One model state per flush: every rider sees the same (model,
	// generation) pair, so a hot-reload racing the batch can never
	// serve a torn mix — items flushed after the swap all carry the
	// new generation, items flushed before all carry the old one.
	st := u.state.Load()
	inferSec, err := u.infer(buf, st, live, rows)
	hInferSec.Observe(inferSec)
	inferUS := int64(inferSec * 1e6)

	off := 0
	for _, it := range live {
		hQueueWaitSec.Observe(flushedAt.Sub(it.queuedAt).Seconds())
		it.gen = st.generation
		it.flushedAt = flushedAt
		it.inferUS = inferUS
		it.batchItems = len(live)
		it.batchRows = rows
		it.reason = b.reason
		if err != nil {
			it.finish(err)
			continue
		}
		it.delays = append(it.delays[:0], buf.delays[off:off+it.rows]...)
		off += it.rows
		it.finish(nil)
	}
}

// infer fills the batch's packed feature rows and runs the shared
// forest call with panic isolation: a panicking prediction (or test
// hook) fails this batch, not the worker. Returns the inference wall
// time.
func (u *unit) infer(buf *workerBuf, st *modelState, live []*batchItem, rows int) (sec float64, err error) {
	defer func() {
		if p := recover(); p != nil {
			mPanics.Inc()
			obs.Logger("serve").Error("inference panic recovered", "fu", u.fu, "panic", fmt.Sprint(p))
			err = fmt.Errorf("serve: inference panic: %v", p)
		}
	}()
	if hook := u.srv.cfg.inferHook; hook != nil {
		for _, it := range live {
			if err := hook(it.ctx); err != nil {
				return 0, err
			}
		}
	}
	buf.ensure(rows)
	off := 0
	for _, it := range live {
		if err := st.model.FillPackedRows(buf.rows[off:off+it.rows], it.corner, it.pairs); err != nil {
			return 0, err
		}
		off += it.rows
	}
	t0 := time.Now()
	if err := st.model.PredictPackedInto(buf.delays[:rows], buf.rows[:rows]); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}

// workerBuf is one worker's reusable inference scratch: the batch's
// packed feature rows and its delays, grown only when a batch needs
// more rows than any before it.
type workerBuf struct {
	rows   []ml.PackedRow
	delays []float64
}

func (b *workerBuf) ensure(n int) {
	if len(b.rows) < n {
		b.rows = make([]ml.PackedRow, n)
		b.delays = make([]float64, n)
	}
}

// retryAfterSecs derives the Retry-After a shed response advises from
// the unit's measured flush duration: with `queued` items waiting and
// batches of up to batchSize leaving at most one flush duration apart,
// the backlog clears in about (queued/batchSize + 1) flush durations. A
// constant would either park clients far longer than a
// millisecond-scale flush needs or invite an instant retry storm when
// flushes are slow; deriving it ties the advice to the actual drain
// rate. Clamped to [1, 60] whole seconds (HTTP Retry-After
// granularity).
func retryAfterSecs(flush time.Duration, queued int64, batchSize int) int {
	if batchSize < 1 {
		batchSize = 1
	}
	if queued < 0 {
		queued = 0
	}
	flushes := queued/int64(batchSize) + 1
	d := time.Duration(flushes) * flush
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}
