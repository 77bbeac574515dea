package sim

// calQueue is the fast kernel's pending-event scheduler: a calendar
// queue (bucketed time wheel) replacing the binary min-heap. Event
// times are hashed into fixed-width buckets sized from the netlist's
// delay range; draining walks buckets in virtual-time order, sorts each
// bucket by the deterministic (t, net) key when the drain enters it,
// and consumes it through a position cursor.
//
// Buckets are not small on the big units: almost every gate has its
// own delay, so almost every event has its own time, and an INT_MUL
// bucket holds 23 events on average on the imaging streams (p99 122)
// and 49 on random vectors (max 316). sortCur therefore orders a
// bucket in linear time: a counting-sort spread over equal slices of
// the bucket's span, then an insertion sort that only fixes order
// inside each slice.
//
// Correctness rests on the bucket map b(t) = int64(t/width) being
// non-decreasing in t with equal times sharing a bucket: the earliest
// pending time always lives in the first non-empty bucket, every event
// at exactly that time lives in that same bucket, and the sorted drain
// therefore reproduces the binary heap's (t, net) pop order exactly.
//
// Scheduling from a batch at time t pushes events at t + d with
// d >= width, which lands in a bucket after the current one — except
// in a floating-point corner: rounding in the bucket map can park
// t + d in the bucket currently being drained. push detects that case
// (target bucket == cur while cur is sorted) and insertion-sorts the
// event into the unconsumed tail, past the cursor — legal because
// t + d is strictly greater than the batch time the cursor has
// consumed up to. No other push can target a sorted bucket.
//
// The wheel spans nbuckets*width of future time. Events beyond that
// horizon (possible only when the netlist's max/min delay ratio exceeds
// the bucket cap) fall back to an unsorted overflow list; overflowMin
// tracks the earliest overflow bucket, and due overflow migrates into
// the wheel before each bucket entry, so an overflow event can never be
// leapfrogged by a wheel event.
type calQueue struct {
	width   float64   // bucket width, derived from the minimum gate delay
	invW    float64   // 1/width, multiplied instead of divided per push
	mask    int64     // nbuckets-1; nbuckets is a power of two
	buckets [][]event // ring of event buckets, indexed by bucket&mask

	cur    int64 // virtual bucket currently being drained
	pos    int   // consume position inside buckets[cur&mask]
	sorted bool  // buckets[cur&mask] has been sorted and entered

	count  int // all queued events, including later-cancelled ones
	wheelN int // events currently in the wheel (count - len(over))

	over    []event // far-future overflow, unsorted
	overMin int64   // earliest bucket present in over; valid when len(over) > 0

	tmp []event // spread's scatter target
	cnt []int32 // spread's per-slot counts (shifted by one), then slot cursors
}

// maxBuckets caps the wheel so a pathological delay ratio cannot
// balloon the ring; events past the capped horizon use the overflow.
const maxBuckets = 1 << 12

// init sizes the wheel from the netlist's delay range [minD, maxD]. The
// width is a fraction of the minimum delay (fewer events per bucket,
// cheaper sorts); the horizon must cover the farthest a single gate
// delay can schedule ahead of the drain point, up to the bucket cap.
func (q *calQueue) init(minD, maxD float64) {
	q.width = minD / 2
	q.invW = 1 / q.width
	need := int64(maxD/q.width) + 2
	n := int64(8)
	for n < need && n < maxBuckets {
		n <<= 1
	}
	q.mask = n - 1
	q.buckets = make([][]event, n)
}

// reset empties the queue for a new cycle. Buckets were already
// truncated to zero length as the previous cycle drained them.
func (q *calQueue) reset() {
	q.cur, q.pos, q.count, q.wheelN = 0, 0, 0, 0
	q.sorted = false
	q.over = q.over[:0]
}

// bucketOf maps a time to its virtual bucket: non-decreasing in t, and
// equal times always share a bucket.
func (q *calQueue) bucketOf(t float64) int64 { return int64(t * q.invW) }

// push enqueues an event.
func (q *calQueue) push(e event) {
	b := q.bucketOf(e.t)
	q.count++
	if b-q.cur > q.mask {
		// Beyond the wheel horizon: overflow.
		if len(q.over) == 0 || b < q.overMin {
			q.overMin = b
		}
		q.over = append(q.over, e)
		return
	}
	q.wheelN++
	s := b & q.mask
	q.buckets[s] = append(q.buckets[s], e)
	if b == q.cur && q.sorted {
		// Rounded down into the bucket being drained: keep the
		// unconsumed tail sorted by bubbling the event into place,
		// never crossing the consume cursor.
		bk := q.buckets[s]
		for j := len(bk) - 1; j > q.pos; j-- {
			if bk[j-1].t < bk[j].t || (bk[j-1].t == bk[j].t && bk[j-1].net < bk[j].net) {
				break
			}
			bk[j-1], bk[j] = bk[j], bk[j-1]
		}
	}
}

// next positions the drain at the earliest pending event and reports
// whether one exists. After it returns true, bucket()[pos] is the next
// event in global (t, net) order.
func (q *calQueue) next() bool {
	for {
		b := q.buckets[q.cur&q.mask]
		if q.pos < len(b) {
			if !q.sorted {
				q.sortCur()
				q.sorted = true
			}
			return true
		}
		// The current bucket is exhausted: truncate it before anything
		// else, so its slot is clean when the ring wraps onto it or when
		// the next cycle reuses it. (Only the current bucket is ever
		// partially consumed, so this keeps every passed slot empty.)
		if len(b) > 0 {
			q.buckets[q.cur&q.mask] = b[:0]
		}
		if q.count == 0 {
			return false
		}
		q.pos = 0
		q.sorted = false
		if q.wheelN == 0 {
			// Everything pending is far-future: jump the wheel to it.
			q.cur = q.overMin
			q.migrate()
			continue
		}
		q.cur++
		// Overflow due within the next bucket's horizon must enter the
		// wheel before that bucket is sorted and entered.
		if len(q.over) > 0 && q.overMin-q.cur <= q.mask {
			q.migrate()
		}
	}
}

// bucket returns the bucket currently being drained; valid after next
// returned true, until the enclosing batch's evaluation pushes new
// events (which may grow this very bucket — re-fetch per batch).
func (q *calQueue) bucket() []event { return q.buckets[q.cur&q.mask] }

// take consumes the event at the drain position.
func (q *calQueue) take() event {
	e := q.buckets[q.cur&q.mask][q.pos]
	q.pos++
	q.count--
	q.wheelN--
	return e
}

// migrate moves every overflow event that now fits the wheel horizon
// ([cur, cur+mask]) into its bucket and recomputes overflowMin. Called
// only while the current bucket is unsorted (pos == 0), so migrated
// events may legally land there.
func (q *calQueue) migrate() {
	kept := q.over[:0]
	q.overMin = 0
	for _, e := range q.over {
		b := q.bucketOf(e.t)
		if b-q.cur > q.mask {
			if len(kept) == 0 || b < q.overMin {
				q.overMin = b
			}
			kept = append(kept, e)
			continue
		}
		q.wheelN++
		q.buckets[b&q.mask] = append(q.buckets[b&q.mask], e)
	}
	q.over = kept
}

// sortCur orders the current bucket by (t, net) with an insertion sort.
// A bucket of more than 24 events (most queued events on the
// multipliers) is first spread in linear time, so the insertion sort
// only fixes order inside each slice of the bucket's span. A cancelled
// and a rescheduled event for the same net at the same time compare
// equal, but the generation check at application time makes their
// relative order unobservable.
func (q *calQueue) sortCur() {
	b := q.buckets[q.cur&q.mask]
	if len(b) > 24 {
		q.spread(b)
	}
	for i := 1; i < len(b); i++ {
		e := b[i]
		j := i - 1
		for j >= 0 && (b[j].t > e.t || (b[j].t == e.t && b[j].net > e.net)) {
			b[j+1] = b[j]
			j--
		}
		b[j+1] = e
	}
}

// spread counting-sorts the current bucket b into len(b) equal slices
// of its time span, stably, through scratch that grows geometrically
// and is reused across buckets and cycles. Only the insertion sort in
// sortCur decides the order: a slot index that float rounding pushes
// past either end is clamped, which can cost time but never order.
func (q *calQueue) spread(b []event) {
	n := len(b)
	if cap(q.tmp) < n {
		c := max(n, 2*cap(q.tmp))
		q.tmp = make([]event, c)
		q.cnt = make([]int32, c+1)
	}
	tmp, cnt := q.tmp[:n], q.cnt[:n+1]
	clear(cnt)
	base, fn := float64(q.cur), float64(n)
	for _, e := range b {
		cnt[slotOf(e.t*q.invW-base, fn, n)+1]++
	}
	for k := 1; k < n; k++ {
		cnt[k] += cnt[k-1] // cnt[k] is now slot k's first index
	}
	for _, e := range b {
		k := slotOf(e.t*q.invW-base, fn, n)
		tmp[cnt[k]] = e
		cnt[k]++
	}
	copy(b, tmp)
}

// slotOf maps x, an event's offset into the bucket in bucket widths
// (nominally [0, 1)), to one of n slots.
func slotOf(x, fn float64, n int) int {
	return min(max(int(x*fn), 0), n-1)
}
