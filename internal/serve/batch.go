package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tevot/internal/cells"
	"tevot/internal/obs"
	"tevot/internal/workload"
)

// The request coalescer. Individual /v1/predict calls enqueue one
// batchItem each into their functional unit's pending batch; the unit's
// batcher goroutine hands the batch to the first idle inference worker.
// The policy is work-conserving: a batch never waits while a worker is
// free, so riders accumulate only while every worker is busy, and they
// all leave together in the next flush. BatchSize requests or
// MaxBatchRows predicted cycles cap a batch; reaching a cap blocks the
// batcher until a worker takes the batch. One flush runs one forest
// call over every live item's feature rows (each item keeps its own
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
	flushIdleReason flushReason = "idle" // a worker was free
	flushSizeReason flushReason = "size" // BatchSize requests accumulated
	flushRowsReason flushReason = "rows" // MaxBatchRows predicted cycles accumulated
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

// batchItem is one admitted request's slot in an accumulating batch.
// The result fields are written by the flushing worker before done is
// signalled and must not be read before then.
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

// batch is one accumulating (then flushing) set of items. Batches are
// recycled through the unit's free list so the steady state allocates
// nothing.
type batch struct {
	items  []*batchItem
	rows   int
	reason flushReason
}

// unit is one functional unit's serving shard: its own model state,
// admission queue, coalescer, and worker slice behind the shared mux.
type unit struct {
	srv   *Server
	fu    string // model FU name; also the /v1/predict/{fu} route key
	state atomic.Pointer[modelState]

	met    outcomeSet // serve.fu.<FU>.* counters
	gQueue *obs.Gauge
	gGen   *obs.Gauge

	queue     chan *batchItem // admission: handlers → batcher
	queueLen  atomic.Int64    // queued-or-accumulating (not yet dispatched) items
	batches   chan *batch     // batcher → workers, unbuffered handoff
	free      chan *batch     // recycled batch structs
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
		batches: make(chan *batch),
		free:    make(chan *batch, workers+2),
		workers: workers,
	}
	u.state.Store(st)
	u.gGen.Set(float64(st.generation))
	u.gQueue.Set(0)
	// Seed the free list with one batch per worker plus the one the
	// batcher accumulates into: getBatch never allocates in steady
	// state, whatever the dispatch/recycle interleaving.
	for i := 0; i < workers+1; i++ {
		u.free <- &batch{items: make([]*batchItem, 0, s.cfg.BatchSize+1)}
	}
	return u
}

// admit reserves a queue slot for the item, or reports the unit is full
// (the caller sheds with 429). The bound counts every item the
// coalescer holds but has not yet handed to a worker — queued in the
// channel or accumulating in the batcher's pending batch — so admission
// stays strictly bounded through batch boundaries.
func (u *unit) admit(it *batchItem) bool {
	depth := int64(u.srv.cfg.QueueDepth)
	for {
		n := u.queueLen.Load()
		if n >= depth {
			return false
		}
		if u.queueLen.CompareAndSwap(n, n+1) {
			u.gQueue.Set(float64(n + 1))
			break
		}
	}
	gQueueDepth.Set(float64(u.srv.queueLen.Add(1)))
	it.queuedAt = time.Now()
	// The counter reservation guarantees channel space: the channel
	// holds at most the reserved count.
	u.queue <- it
	return true
}

// dequeued releases n admission reservations (their batch has been
// handed to a worker).
func (u *unit) dequeued(n int) {
	u.gQueue.Set(float64(u.queueLen.Add(int64(-n))))
	gQueueDepth.Set(float64(u.srv.queueLen.Add(int64(-n))))
}

func (u *unit) getBatch() *batch {
	select {
	case b := <-u.free:
		return b
	default:
		return &batch{items: make([]*batchItem, 0, u.srv.cfg.BatchSize+1)}
	}
}

func (u *unit) putBatch(b *batch) {
	for i := range b.items {
		b.items[i] = nil
	}
	b.items = b.items[:0]
	b.rows = 0
	select {
	case u.free <- b:
	default:
	}
}

// batcher owns the unit's pending batch. It is the only goroutine that
// touches the pending batch, so the flush policy needs no locks: items
// arrive over the queue channel, and while the batch holds any, the
// same select offers it on the unbuffered handoff channel, so the
// first worker to go idle takes it. A batch that reaches a cap is
// dispatched with a blocking send instead (blocking while every worker
// is busy — that backpressure is what keeps the admission bound
// meaningful).
func (u *unit) batcher() {
	defer u.srv.wg.Done()
	cfg := &u.srv.cfg
	var cur *batch
	pending := 0 // len(cur.items); cur is the worker's once sent

	dispatch := func(reason flushReason) {
		cur.reason = reason
		u.batches <- cur
		u.dequeued(pending)
		cur, pending = nil, 0
	}
	add := func(it *batchItem) {
		if cur == nil {
			cur = u.getBatch()
		}
		cur.items = append(cur.items, it)
		cur.rows += it.rows
		pending++
		switch {
		case pending >= cfg.BatchSize:
			dispatch(flushSizeReason)
		case cur.rows >= cfg.MaxBatchRows:
			dispatch(flushRowsReason)
		}
	}

	for {
		// A nil channel's send case never fires: the idle offer is live
		// only while there is a batch to offer.
		var idle chan<- *batch
		if cur != nil {
			cur.reason = flushIdleReason
			idle = u.batches
		}
		select {
		case <-u.srv.stopCh:
			// Hard stop: answer everything the coalescer still holds so
			// handlers respond now, then let the workers run down the
			// already-dispatched batches.
			if cur != nil {
				u.dequeued(pending)
				for _, it := range cur.items {
					it.finish(errDraining)
				}
				u.putBatch(cur)
			}
			for {
				select {
				case it := <-u.queue:
					u.dequeued(1)
					it.finish(errDraining)
				default:
					close(u.batches)
					return
				}
			}
		case idle <- cur:
			u.dequeued(pending)
			cur, pending = nil, 0
		case it := <-u.queue:
			add(it)
			// Greedy drain: a burst that is already queued is pulled
			// through cheap non-blocking receives instead of paying the
			// full select per item — the dominant per-item cost at high
			// offered load — and joins the batch before it is offered.
		greedy:
			for {
				select {
				case it := <-u.queue:
					add(it)
				default:
					break greedy
				}
			}
		}
	}
}

// worker runs flushes until the batcher closes the handoff channel.
// Each worker owns one reusable buffer set, so steady-state coalesced
// inference allocates nothing.
func (u *unit) worker() {
	defer u.srv.wg.Done()
	var buf workerBuf
	for b := range u.batches {
		t0 := time.Now()
		u.flush(&buf, b)
		u.lastFlush.Store(int64(time.Since(t0)))
		u.putBatch(b)
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

// infer fills the packed feature rows and runs the shared forest call
// with panic isolation: a panicking prediction (or test hook) fails
// this batch, not the worker. Returns the inference wall time.
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
	buf.ensure(st.model.Dim(), rows)
	off := 0
	for _, it := range live {
		if err := st.model.FillFeatureRows(buf.rows[off:off+it.rows], it.corner, it.pairs); err != nil {
			return 0, err
		}
		off += it.rows
	}
	t0 := time.Now()
	if err := st.model.PredictRowsInto(buf.delays[:rows], buf.rows[:rows]); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}

// workerBuf is one worker's reusable inference scratch: feature rows
// carved from a single backing array plus the delay output, re-carved
// only when the batch capacity or model dimension changes.
type workerBuf struct {
	backing []float64
	rows    [][]float64
	delays  []float64
	dim     int
}

func (b *workerBuf) ensure(dim, n int) {
	if b.dim == dim && len(b.rows) >= n {
		return
	}
	if n < len(b.rows) {
		n = len(b.rows)
	}
	b.backing = make([]float64, n*dim)
	b.rows = make([][]float64, n)
	for i := range b.rows {
		b.rows[i] = b.backing[i*dim : (i+1)*dim : (i+1)*dim]
	}
	b.delays = make([]float64, n)
	b.dim = dim
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
