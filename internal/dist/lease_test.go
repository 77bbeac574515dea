package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"tevot/internal/cells"
)

// fakeClock drives the lease table deterministically.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}
func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func testCells(n int) []Cell {
	out := make([]Cell, n)
	for i := range out {
		out[i] = Cell{FU: "INT_ADD", Dataset: "random_data",
			Corner: cells.Corner{V: 0.8 + float64(i)/100, T: float64(i)}}
	}
	return out
}

func testTable(n int, clk *fakeClock) *leaseTable {
	return newLeaseTable(testCells(n), 10*time.Second, 3, clk.now)
}

func val(s string) json.RawMessage { return json.RawMessage(fmt.Sprintf("{%q:1}", s)) }

func mustGrant(t *testing.T, tb *leaseTable, worker string) acquireResult {
	t.Helper()
	res, err := tb.acquire(worker)
	if err != nil {
		t.Fatalf("acquire(%s): %v", worker, err)
	}
	if res.lease == nil {
		t.Fatalf("acquire(%s): no lease granted (done=%v none=%v)", worker, res.done, res.none)
	}
	return res
}

// TestLeaseExpiryReissuesCell: a dead worker's lease expires and the
// cell is granted to another worker.
func TestLeaseExpiryReissuesCell(t *testing.T) {
	clk := newFakeClock()
	tb := testTable(1, clk)
	r1 := mustGrant(t, tb, "w1")

	clk.advance(11 * time.Second) // past TTL
	expired := tb.expireSweep()
	if len(expired) != 1 || expired[0].id != r1.lease.id {
		t.Fatalf("expected exactly r1's lease to expire, got %v", expired)
	}
	r2 := mustGrant(t, tb, "w2")
	if r2.cell.Key() != r1.cell.Key() {
		t.Fatalf("re-issue granted %s, want %s", r2.cell.Key(), r1.cell.Key())
	}
	if tb.cells[r2.cell.Key()].issues != 2 {
		t.Fatalf("issues = %d, want 2", tb.cells[r2.cell.Key()].issues)
	}
}

// TestLateResultRacesExpiry: the "dead" worker was only slow — its
// result lands after expiry and re-issue. The late result is accepted
// (determinism makes it valid), and the re-issued copy's later result
// is a byte-checked duplicate.
func TestLateResultRacesExpiry(t *testing.T) {
	clk := newFakeClock()
	tb := testTable(1, clk)
	r1 := mustGrant(t, tb, "w1")
	key := r1.cell.Key()

	clk.advance(11 * time.Second)
	tb.expireSweep()
	r2 := mustGrant(t, tb, "w2") // re-issued

	// w1's late result: its lease is gone but the cell isn't done.
	v := val("x")
	comp, err := tb.complete("w1", r1.lease.id, key, v, HashValue(v))
	if err != nil {
		t.Fatalf("late result rejected: %v", err)
	}
	if !comp.accepted || !comp.late {
		t.Fatalf("late result: accepted=%v late=%v, want true/true", comp.accepted, comp.late)
	}

	// w2 finishes too: byte-identical → harmless duplicate.
	comp2, err := tb.complete("w2", r2.lease.id, key, v, HashValue(v))
	if err != nil {
		t.Fatalf("duplicate rejected: %v", err)
	}
	if !comp2.duplicate {
		t.Fatal("second identical result should be a duplicate")
	}
	if !tb.allDone() {
		t.Fatal("single-cell table should be done")
	}
}

// TestDoubleIssueDivergenceAborts: two executions of one cell that
// disagree byte-wise poison the run — complete returns the Divergence
// and every later acquire fails with errAborted.
func TestDoubleIssueDivergenceAborts(t *testing.T) {
	clk := newFakeClock()
	tb := testTable(2, clk)
	r1 := mustGrant(t, tb, "w1")
	key := r1.cell.Key()

	clk.advance(11 * time.Second)
	tb.expireSweep()
	r2 := mustGrant(t, tb, "w2")

	v1, v2 := val("a"), val("b")
	if _, err := tb.complete("w1", r1.lease.id, key, v1, HashValue(v1)); err != nil {
		t.Fatalf("first result: %v", err)
	}
	_, err := tb.complete("w2", r2.lease.id, key, v2, HashValue(v2))
	var div *Divergence
	if !errors.As(err, &div) {
		t.Fatalf("divergent result returned %v, want *Divergence", err)
	}
	if div.Cell != key || div.HaveWorker != "w1" || div.GotWorker != "w2" {
		t.Fatalf("divergence misattributed: %+v", div)
	}

	if _, err := tb.acquire("w3"); !errors.Is(err, errAborted) {
		t.Fatalf("acquire after divergence = %v, want errAborted", err)
	}
	if err := tb.renew("w1", r1.lease.id); !errors.Is(err, errAborted) {
		t.Fatalf("renew after divergence = %v, want errAborted", err)
	}
}

// TestWorkerReregistrationReleasesLeases: a worker killed and restarted
// under the same ID gets its old leases released immediately — no TTL
// wait — and can re-lease the same cells.
func TestWorkerReregistrationReleasesLeases(t *testing.T) {
	clk := newFakeClock()
	tb := testTable(3, clk)
	tb.register("w1")
	a := mustGrant(t, tb, "w1")
	b := mustGrant(t, tb, "w1")

	released := tb.register("w1") // restart
	if released != 2 {
		t.Fatalf("re-registration released %d leases, want 2", released)
	}
	if tb.workers["w1"].generation != 1 {
		t.Fatalf("generation = %d, want 1", tb.workers["w1"].generation)
	}
	for _, key := range []string{a.cell.Key(), b.cell.Key()} {
		if st := tb.cells[key].status; st != cellPending {
			t.Fatalf("cell %s status = %v after release, want pending", key, st)
		}
	}
	// Old lease IDs must be dead.
	if err := tb.renew("w1", a.lease.id); !errors.Is(err, errLeaseGone) {
		t.Fatalf("renew of released lease = %v, want errLeaseGone", err)
	}
	// And the restarted worker can pick the cells back up.
	c := mustGrant(t, tb, "w1")
	if c.cell.Key() != a.cell.Key() {
		t.Fatalf("restarted worker got %s, want first cell %s", c.cell.Key(), a.cell.Key())
	}
}

// TestElasticJoinMidRun: a worker that joins mid-run (never registered;
// first contact is a lease request) is implicitly registered and gets
// the next pending cell.
func TestElasticJoinMidRun(t *testing.T) {
	clk := newFakeClock()
	tb := testTable(4, clk)
	mustGrant(t, tb, "w1")
	v := val("r")
	r2 := mustGrant(t, tb, "w1")
	if _, err := tb.complete("w1", r2.lease.id, r2.cell.Key(), v, HashValue(v)); err != nil {
		t.Fatal(err)
	}

	late := mustGrant(t, tb, "late-joiner")
	if tb.workers["late-joiner"] == nil {
		t.Fatal("lease request should implicitly register the worker")
	}
	if st := tb.cells[late.cell.Key()].status; st != cellLeased {
		t.Fatalf("joined worker's cell status = %v, want leased", st)
	}
	if late.cell.Key() == r2.cell.Key() {
		t.Fatal("joiner was granted an already-completed cell")
	}
}

// TestRenewExtendsDeadline: renewal pushes the deadline out; without it
// the lease expires.
func TestRenewExtendsDeadline(t *testing.T) {
	clk := newFakeClock()
	tb := testTable(1, clk)
	r := mustGrant(t, tb, "w1")

	clk.advance(8 * time.Second)
	if err := tb.renew("w1", r.lease.id); err != nil {
		t.Fatalf("renew: %v", err)
	}
	clk.advance(8 * time.Second) // 16s total, but renewed at 8s → deadline 18s
	if n := len(tb.expireSweep()); n != 0 {
		t.Fatalf("renewed lease expired (%d)", n)
	}
	clk.advance(3 * time.Second) // 19s > 18s
	if n := len(tb.expireSweep()); n != 1 {
		t.Fatalf("lease should expire after renewal lapse, got %d", n)
	}
}

// TestSpeculativeReissueBounded: with nothing pending, an idle worker
// gets a speculative copy of the straggler — but only after enough
// completed-cell history, never of its own cell, and never beyond
// maxCopies.
func TestSpeculativeReissueBounded(t *testing.T) {
	clk := newFakeClock()
	tb := testTable(5, clk)

	// w1 takes the first cell and stalls; w2 completes the rest fast.
	r1 := mustGrant(t, tb, "w1")
	for i := 0; i < 4; i++ {
		r := mustGrant(t, tb, "w2")
		clk.advance(1 * time.Second)
		if err := tb.renew("w1", r1.lease.id); err != nil { // keep straggler alive
			t.Fatal(err)
		}
		v := val(r.cell.Key())
		if _, err := tb.complete("w2", r.lease.id, r.cell.Key(), v, HashValue(v)); err != nil {
			t.Fatal(err)
		}
	}
	// Median completed duration ≈ 1s; straggler has ~4s elapsed > 3×1s.
	clk.advance(500 * time.Millisecond)

	// The straggler's own worker never gets a speculative copy.
	if res, err := tb.acquire("w1"); err != nil || res.lease != nil {
		t.Fatalf("straggler's own worker got a copy: %+v err=%v", res, err)
	}
	res, err := tb.acquire("w3")
	if err != nil || res.lease == nil || !res.speculative {
		t.Fatalf("idle worker should get speculative copy, got %+v err=%v", res, err)
	}
	if res.cell.Key() != r1.cell.Key() {
		t.Fatalf("speculative copy of %s, want straggler %s", res.cell.Key(), r1.cell.Key())
	}
	// maxCopies=2: no third copy.
	if res2, err := tb.acquire("w4"); err != nil || res2.lease != nil {
		t.Fatalf("third copy granted beyond maxCopies: %+v err=%v", res2, err)
	}

	// First result in wins; the other copy's result is a duplicate.
	v := val("straggler")
	if comp, err := tb.complete("w3", res.lease.id, res.cell.Key(), v, HashValue(v)); err != nil || !comp.accepted {
		t.Fatalf("speculative winner: %+v err=%v", comp, err)
	}
	if comp, err := tb.complete("w1", r1.lease.id, r1.cell.Key(), v, HashValue(v)); err != nil || !comp.duplicate {
		t.Fatalf("loser should be duplicate: %+v err=%v", comp, err)
	}
}

// TestStuckCellAbortsAfterMaxIssues: a cell that gets issued over and
// over without completing eventually aborts the run instead of looping
// forever.
func TestStuckCellAbortsAfterMaxIssues(t *testing.T) {
	clk := newFakeClock()
	tb := testTable(1, clk)
	for i := 0; i < maxIssuesPerCell; i++ {
		mustGrant(t, tb, "w1")
		clk.advance(11 * time.Second)
		if n := len(tb.expireSweep()); n != 1 {
			t.Fatalf("round %d: expired %d leases, want 1", i, n)
		}
	}
	_, err := tb.acquire("w1")
	if err == nil || errors.Is(err, errAborted) {
		t.Fatalf("stuck cell should return a terminal non-abort error, got %v", err)
	}
}

// TestCompleteRejectsBadHash: a result whose hash doesn't match its
// bytes (corrupt transfer) is rejected without touching cell state.
func TestCompleteRejectsBadHash(t *testing.T) {
	clk := newFakeClock()
	tb := testTable(1, clk)
	r := mustGrant(t, tb, "w1")
	v := val("x")
	if _, err := tb.complete("w1", r.lease.id, r.cell.Key(), v, "deadbeef"); err == nil {
		t.Fatal("mismatched content hash should be rejected")
	}
	if tb.cells[r.cell.Key()].status == cellDone {
		t.Fatal("rejected result must not complete the cell")
	}
}

// TestAcquireWhenAllDone reports done, not none.
func TestAcquireWhenAllDone(t *testing.T) {
	clk := newFakeClock()
	tb := testTable(1, clk)
	r := mustGrant(t, tb, "w1")
	v := val("x")
	if _, err := tb.complete("w1", r.lease.id, r.cell.Key(), v, HashValue(v)); err != nil {
		t.Fatal(err)
	}
	res, err := tb.acquire("w2")
	if err != nil || !res.done {
		t.Fatalf("acquire on finished sweep: %+v err=%v, want done", res, err)
	}
}
