package dist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"
)

// The lease table is the coordinator's whole brain: which cells are
// pending, leased (to whom, until when), or done (with which bytes).
// Everything is guarded by one mutex — coordination traffic is a few
// requests per worker per cell, against cells that cost seconds to
// minutes each, so contention is irrelevant and simplicity wins.
//
// Lease life cycle:
//
//	pending --acquire--> leased --complete--> done
//	            ^            |
//	            '--expire----'   (no renewal within TTL)
//
// plus two deliberate complications:
//
//   - speculative copies: when no pending cells remain, an idle worker
//     may be granted a second lease on the slowest in-flight cell
//     (bounded by maxCopies); first result wins, the rest must match;
//   - late results: a result for an expired (or even unknown) lease is
//     still accepted if the cell is not done — determinism makes the
//     work valid no matter who finished it — and byte-checked if it is.

// maxIssuesPerCell bounds how many leases one cell may ever receive;
// exceeding it aborts the run rather than re-issuing a doomed cell
// forever.
const maxIssuesPerCell = 32

// maxCopies bounds concurrent leases per cell: the primary and one
// speculative copy.
const maxCopies = 2

var (
	// errLeaseGone tells a renewing/reporting worker its lease has been
	// expired and possibly re-issued; the worker abandons the cell.
	errLeaseGone = errors.New("dist: lease gone")
	// errAborted means the run has hit a divergence and will not accept
	// further work.
	errAborted = errors.New("dist: run aborted on divergence")
)

// Divergence is the report the run aborts with when two executions of
// one cell return different bytes — a determinism violation that must
// stop the run, because every downstream artifact assumes cell results
// are functions of their key.
type Divergence struct {
	Cell       string `json:"cell"`
	HaveHash   string `json:"have_hash"`
	HaveWorker string `json:"have_worker"`
	GotHash    string `json:"got_hash"`
	GotWorker  string `json:"got_worker"`
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("dist: divergent results for cell %s: %s from %s vs %s from %s",
		d.Cell, d.HaveHash[:12], d.HaveWorker, d.GotHash[:12], d.GotWorker)
}

type cellStatus int

const (
	cellPending cellStatus = iota
	cellLeased
	cellDone
)

// lease is one grant of one cell to one worker.
type lease struct {
	id          string
	worker      string
	key         string
	issued      time.Time
	deadline    time.Time
	speculative bool
}

type cellEntry struct {
	cell   Cell
	status cellStatus
	// leases holds the active grants (primary plus speculative copies),
	// keyed by lease id.
	leases map[string]*lease
	// Completed state.
	value  json.RawMessage
	hash   string
	worker string // who completed it ("journal" for resumed cells)
	issues int    // total grants over the cell's lifetime
}

type workerEntry struct {
	id          string
	registered  time.Time
	lastSeen    time.Time
	generation  int // bumped on re-registration
	leasesHeld  int
	cellsDone   int
	cellsDryRun int
}

// leaseTable tracks every cell and worker of one run.
type leaseTable struct {
	order   []string
	cells   map[string]*cellEntry
	leases  map[string]*lease
	workers map[string]*workerEntry
	ttl     time.Duration
	factor  float64 // straggler factor
	now     func() time.Time

	leaseSeq  int64
	doneCount int
	durations []time.Duration // completed-cell lease→result times, for straggler median + ETA
	// slowestKey/slowestDur name the completed cell with the longest
	// lease→result time (journal-resumed cells don't count).
	slowestKey string
	slowestDur time.Duration
	diverged   *Divergence
	start      time.Time
}

func newLeaseTable(order []Cell, ttl time.Duration, factor float64, now func() time.Time) *leaseTable {
	if now == nil {
		now = time.Now
	}
	t := &leaseTable{
		cells:   make(map[string]*cellEntry, len(order)),
		leases:  map[string]*lease{},
		workers: map[string]*workerEntry{},
		ttl:     ttl,
		factor:  factor,
		now:     now,
		start:   now(),
	}
	for _, c := range order {
		k := c.Key()
		t.order = append(t.order, k)
		t.cells[k] = &cellEntry{cell: c, status: cellPending, leases: map[string]*lease{}}
	}
	return t
}

// markDone records a journal-resumed cell without any lease ceremony.
func (t *leaseTable) markDone(key string, value json.RawMessage) error {
	e, ok := t.cells[key]
	if !ok {
		return fmt.Errorf("dist: journal entry %q is not a cell of this sweep", key)
	}
	if e.status == cellDone {
		return nil
	}
	e.status = cellDone
	e.value = value
	e.hash = HashValue(value)
	e.worker = "journal"
	t.doneCount++
	return nil
}

// register adds (or resets) a worker. Re-registration is what a
// restarted worker process does: any leases the previous incarnation
// held are released immediately instead of waiting out their TTL.
func (t *leaseTable) register(worker string) (released int) {
	w := t.workers[worker]
	if w == nil {
		w = &workerEntry{id: worker, registered: t.now()}
		t.workers[worker] = w
	} else {
		w.generation++
		released = t.releaseWorkerLeases(worker)
	}
	w.lastSeen = t.now()
	return released
}

// releaseWorkerLeases returns every lease held by worker to the pending
// pool (unless the cell completed meanwhile).
func (t *leaseTable) releaseWorkerLeases(worker string) int {
	n := 0
	for id, l := range t.leases {
		if l.worker != worker {
			continue
		}
		delete(t.leases, id)
		if e := t.cells[l.key]; e != nil {
			delete(e.leases, id)
			if e.status == cellLeased && len(e.leases) == 0 {
				e.status = cellPending
			}
		}
		n++
	}
	if w := t.workers[worker]; w != nil {
		w.leasesHeld = 0
	}
	return n
}

// acquireResult is what a lease request yields.
type acquireResult struct {
	lease       *lease
	cell        Cell
	speculative bool
	// done: every cell completed; none: nothing grantable right now.
	done bool
	none bool
}

// acquire grants the first pending cell, or a bounded speculative copy
// of the slowest in-flight cell when nothing is pending.
func (t *leaseTable) acquire(worker string) (acquireResult, error) {
	if t.diverged != nil {
		return acquireResult{}, errAborted
	}
	w := t.workers[worker]
	if w == nil {
		// Implicit registration: leasing is how a worker first appears.
		t.register(worker)
		w = t.workers[worker]
	}
	w.lastSeen = t.now()
	if t.doneCount == len(t.order) {
		return acquireResult{done: true}, nil
	}
	for _, k := range t.order {
		e := t.cells[k]
		if e.status != cellPending {
			continue
		}
		// A cell that keeps getting issued and never completes is a
		// persistent failure (bad cell, crashing simulation). Lease
		// expiry would re-issue it forever; abort loudly instead.
		if e.issues >= maxIssuesPerCell {
			return acquireResult{}, fmt.Errorf(
				"dist: cell %s issued %d times without a result; aborting on persistent failure", k, e.issues)
		}
		l := t.grant(e, worker, false)
		return acquireResult{lease: l, cell: e.cell}, nil
	}
	// Nothing pending: consider a speculative copy of a straggler.
	if e := t.stragglerCandidate(worker); e != nil {
		l := t.grant(e, worker, true)
		return acquireResult{lease: l, cell: e.cell, speculative: true}, nil
	}
	return acquireResult{none: true}, nil
}

func (t *leaseTable) grant(e *cellEntry, worker string, speculative bool) *lease {
	t.leaseSeq++
	now := t.now()
	l := &lease{
		id:          fmt.Sprintf("L%06d", t.leaseSeq),
		worker:      worker,
		key:         e.cell.Key(),
		issued:      now,
		deadline:    now.Add(t.ttl),
		speculative: speculative,
	}
	e.leases[l.id] = l
	e.status = cellLeased
	e.issues++
	t.leases[l.id] = l
	t.workers[worker].leasesHeld++
	return l
}

// stragglerCandidate picks the longest-running in-flight cell whose
// elapsed time exceeds factor × median completed-cell time, has fewer
// than maxCopies active leases, and is not already being worked by this
// worker. It needs a handful of completed cells before it trusts the
// median at all.
func (t *leaseTable) stragglerCandidate(worker string) *cellEntry {
	const minSamples = 3
	if t.factor <= 0 || len(t.durations) < minSamples {
		return nil
	}
	med := t.medianDuration()
	threshold := time.Duration(float64(med) * t.factor)
	now := t.now()
	var best *cellEntry
	var bestElapsed time.Duration
	for _, k := range t.order {
		e := t.cells[k]
		if e.status != cellLeased || len(e.leases) >= maxCopies {
			continue
		}
		var oldest time.Time
		mine := false
		for _, l := range e.leases {
			if l.worker == worker {
				mine = true
			}
			if oldest.IsZero() || l.issued.Before(oldest) {
				oldest = l.issued
			}
		}
		if mine {
			continue
		}
		elapsed := now.Sub(oldest)
		if elapsed > threshold && elapsed > bestElapsed {
			best, bestElapsed = e, elapsed
		}
	}
	return best
}

func (t *leaseTable) medianDuration() time.Duration {
	ds := append([]time.Duration(nil), t.durations...)
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// renew extends a live lease's deadline by one TTL.
func (t *leaseTable) renew(worker, leaseID string) error {
	if t.diverged != nil {
		return errAborted
	}
	if w := t.workers[worker]; w != nil {
		w.lastSeen = t.now()
	}
	l, ok := t.leases[leaseID]
	if !ok || l.worker != worker {
		return errLeaseGone
	}
	l.deadline = t.now().Add(t.ttl)
	return nil
}

// completion describes how a reported result was handled.
type completion struct {
	accepted  bool // first result for the cell
	duplicate bool // byte-identical re-execution
	leaseAge  time.Duration
	late      bool // no live lease backed this result
}

// complete records a result for a cell. The lease may be live, expired,
// or foreign — determinism makes the result valid regardless; only the
// bytes are judged.
func (t *leaseTable) complete(worker, leaseID, key string, value json.RawMessage, hash string) (completion, error) {
	if t.diverged != nil {
		return completion{}, errAborted
	}
	e, ok := t.cells[key]
	if !ok {
		return completion{}, fmt.Errorf("dist: result for unknown cell %q", key)
	}
	if want := HashValue(value); hash != want {
		return completion{}, fmt.Errorf("dist: result for %s failed its own content hash (got %s, bytes say %s) — corrupt transfer", key, short(hash), short(want))
	}
	w := t.workers[worker]
	if w == nil {
		t.register(worker)
		w = t.workers[worker]
	}
	w.lastSeen = t.now()

	l, live := t.leases[leaseID]
	var age time.Duration
	if live && l.key == key {
		age = t.now().Sub(l.issued)
	}

	if e.status == cellDone {
		// Re-execution (speculative copy, late after expiry, or worker
		// retry after a lost ACK). Byte-identical → fine; anything else
		// is a divergence that aborts the run.
		t.dropCellLeases(e, worker)
		if bytes.Equal(e.value, value) {
			w.cellsDryRun++
			return completion{duplicate: true, late: !live}, nil
		}
		t.diverged = &Divergence{
			Cell: key, HaveHash: e.hash, HaveWorker: e.worker,
			GotHash: hash, GotWorker: worker,
		}
		return completion{}, t.diverged
	}

	e.status = cellDone
	e.value = value
	e.hash = hash
	e.worker = worker
	t.doneCount++
	w.cellsDone++
	t.dropCellLeases(e, "")
	if age > 0 {
		t.durations = append(t.durations, age)
		if age > t.slowestDur {
			t.slowestKey, t.slowestDur = key, age
		}
	}
	return completion{accepted: true, leaseAge: age, late: !live}, nil
}

// dropCellLeases removes every active lease on e (all copies are moot
// once a result lands). A non-empty worker only adjusts that worker's
// held-count bookkeeping for its own leases; all leases are dropped
// either way.
func (t *leaseTable) dropCellLeases(e *cellEntry, _ string) {
	for id, l := range e.leases {
		delete(t.leases, id)
		delete(e.leases, id)
		if w := t.workers[l.worker]; w != nil && w.leasesHeld > 0 {
			w.leasesHeld--
		}
	}
}

// expireSweep returns expired leases to the pending pool; cells with no
// remaining live lease become grantable again.
func (t *leaseTable) expireSweep() (expired []*lease) {
	now := t.now()
	for id, l := range t.leases {
		if now.Before(l.deadline) {
			continue
		}
		delete(t.leases, id)
		expired = append(expired, l)
		if w := t.workers[l.worker]; w != nil && w.leasesHeld > 0 {
			w.leasesHeld--
		}
		if e := t.cells[l.key]; e != nil {
			delete(e.leases, id)
			if e.status == cellLeased && len(e.leases) == 0 {
				e.status = cellPending
			}
		}
	}
	sort.Slice(expired, func(i, j int) bool { return expired[i].id < expired[j].id })
	return expired
}

// allDone reports completion.
func (t *leaseTable) allDone() bool { return t.doneCount == len(t.order) }

// results snapshots the completed cells' raw values.
func (t *leaseTable) results() map[string]json.RawMessage {
	out := make(map[string]json.RawMessage, t.doneCount)
	for k, e := range t.cells {
		if e.status == cellDone {
			out[k] = e.value
		}
	}
	return out
}

func short(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}
