package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"tevot/internal/cells"
	"tevot/internal/experiments"
	"tevot/internal/obs"
	"tevot/internal/runner"
)

// testSpec is the small grid the integration tests run: 1 FU × 3
// datasets × 2 corners = 6 cells, each fast enough that a full sweep is
// a second-scale affair even under -race.
func testSpec() Spec {
	return Spec{
		Cycles: 400,
		FUs:    []string{"INT_ADD"},
		Corners: []cells.Corner{
			{V: 0.81, T: 0}, {V: 1.00, T: 100},
		},
		Images:    2,
		ImageSize: 16,
		Seed:      1,
	}
}

// The reference artifacts every distributed-mode test compares against:
// the single-process merged JSONL and a lab all in-process workers
// share (functional units are concurrency-safe). Built once per test
// binary — the sweep itself is the expensive part.
var (
	refOnce sync.Once
	refData []byte
	refLab  *experiments.Lab
	refFail error
)

func refMerged(t *testing.T) ([]byte, *experiments.Lab) {
	t.Helper()
	refOnce.Do(func() {
		spec := testSpec()
		lab, err := spec.NewLab()
		if err != nil {
			refFail = err
			return
		}
		refLab = lab
		order, err := spec.Cells()
		if err != nil {
			refFail = err
			return
		}
		opts := lab.CharOpts(1)
		results := make(map[string]json.RawMessage, len(order))
		for _, c := range order {
			row, err := RunCell(context.Background(), lab, c, opts)
			if err != nil {
				refFail = err
				return
			}
			raw, err := MarshalRow(row)
			if err != nil {
				refFail = err
				return
			}
			results[c.Key()] = raw
		}
		var buf bytes.Buffer
		if err := WriteMerged(&buf, order, results); err != nil {
			refFail = err
			return
		}
		refData = buf.Bytes()
	})
	if refFail != nil {
		t.Fatalf("reference sweep: %v", refFail)
	}
	if len(refData) == 0 {
		t.Fatal("reference merged output is empty")
	}
	return refData, refLab
}

// TestSingleProcessMergedMatchesReference: tevot-sweep's plain mode
// (the runner, two cells at a time) produces the same canonical bytes as
// the sequential reference.
func TestSingleProcessMergedMatchesReference(t *testing.T) {
	ref, _ := refMerged(t)
	out := filepath.Join(t.TempDir(), "sp.jsonl")
	_, rep, err := SingleProcessMerged(context.Background(), testSpec(), runner.Config{Workers: 2}, out)
	if err == nil {
		err = rep.Err()
	}
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatalf("single-process merged output differs from reference\n got %d bytes\nwant %d bytes", len(got), len(ref))
	}
}

// TestLocalClusterByteIdentical is the ISSUE acceptance test: an
// in-process cluster — real loopback HTTP, leases, heartbeats — with
// an injected worker kill (SIGKILL-equivalent: its context is cut with
// no goodbye) and a forced mass lease expiry still completes, and its
// merged JSONL is byte-identical to the single-process run.
func TestLocalClusterByteIdentical(t *testing.T) {
	ref, lab := refMerged(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "dist.jsonl")

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	coord, err := NewCoordinator(CoordConfig{
		Spec:        testSpec(),
		LeaseTTL:    2 * time.Second,
		ExpiryEvery: 100 * time.Millisecond,
		Journal:     filepath.Join(dir, "journal.jsonl"),
		Out:         out,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	base, stop, err := coord.Start(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	// Lease one cell as a "holder" that never reports: while it is held
	// the sweep cannot complete, so the kill below is guaranteed to land
	// mid-run — worker 0 can never see leaseDone and exit clean before
	// its cancellation, no matter how fast the real cells finish.
	// ForceExpire releases the held cell to the survivors afterwards.
	holder := NewClient(base, 99)
	if _, _, err := holder.Register(ctx, "holder"); err != nil {
		t.Fatal(err)
	}
	hl, err := holder.Lease(ctx, "holder")
	if err != nil {
		t.Fatal(err)
	}
	if hl.Status != leaseGranted {
		t.Fatalf("holder lease status %q, want granted", hl.Status)
	}

	// Three workers; worker 0 will be killed mid-run.
	const workers = 3
	wctx := make([]context.Context, workers)
	wcancel := make([]context.CancelFunc, workers)
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wctx[i], wcancel[i] = context.WithCancel(ctx)
		defer wcancel[i]()
		cfg := WorkerConfig{
			ID:          "tw-" + string(rune('a'+i)),
			Coordinator: base,
			Lab:         lab,
		}
		ictx := wctx[i]
		go func() { errs <- RunWorker(ictx, cfg) }()
	}

	// Wait until at least one result landed, then kill worker 0 without
	// any goodbye (the in-process analogue of SIGKILL) and force every
	// outstanding lease to expire — the mass-worker-death drill. The
	// renew keeps the holder's cell pinned even if this loop runs past
	// the lease TTL on a slow machine.
	waitFor(t, ctx, func() bool {
		_ = holder.Renew(ctx, "holder", hl.LeaseID, nil)
		return coord.Progress().Done >= 1
	})
	wcancel[0]()
	coord.ForceExpire()

	if err := coord.Wait(ctx); err != nil {
		t.Fatalf("coordinator: %v (progress: %+v)", err, coord.Progress())
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatalf("distributed merged output differs from single-process reference\n got %d bytes\nwant %d bytes", len(got), len(ref))
	}

	// The survivors exit cleanly once the coordinator says done; the
	// killed worker exits with its context error.
	var cancels, clean int
	for i := 0; i < workers; i++ {
		select {
		case err := <-errs:
			if err == nil {
				clean++
			} else if errors.Is(err, context.Canceled) {
				cancels++
			} else {
				t.Fatalf("worker error: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("workers did not exit after completion")
		}
	}
	if cancels != 1 || clean != 2 {
		t.Fatalf("worker exits: %d cancelled / %d clean, want 1/2", cancels, clean)
	}
}

// runCluster runs cfg's sweep to completion on an in-process
// coordinator and n RunWorker goroutines sharing lab, and fails the
// test unless the coordinator and every worker finish cleanly.
func runCluster(ctx context.Context, t *testing.T, cfg CoordConfig, lab *experiments.Lab, n int) {
	t.Helper()
	coord, err := NewCoordinator(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	base, stop, err := coord.Start(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wcfg := WorkerConfig{ID: fmt.Sprintf("local-%d", i), Coordinator: base, Lab: lab}
		go func() { errs <- RunWorker(ctx, wcfg) }()
	}
	if err := coord.Wait(ctx); err != nil {
		t.Fatalf("coordinator: %v (progress: %+v)", err, coord.Progress())
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}
}

// TestCoordinatorResumesFromJournal: a coordinator restarted on a
// partial journal re-runs only the missing cells and still produces the
// byte-identical merged output.
func TestCoordinatorResumesFromJournal(t *testing.T) {
	ref, lab := refMerged(t)
	dir := t.TempDir()
	journal := filepath.Join(dir, "journal.jsonl")
	out := filepath.Join(dir, "dist.jsonl")

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// First incarnation: run the full sweep to get a complete journal.
	runCluster(ctx, t, CoordConfig{
		Spec:     testSpec(),
		LeaseTTL: 2 * time.Second,
		Journal:  journal,
		Out:      filepath.Join(dir, "first.jsonl"),
	}, lab, 2)

	// Simulate the coordinator dying partway: keep the header plus the
	// first three completed cells.
	full, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(full, []byte("\n"))
	const keep = 1 + 3 // header + 3 entries
	if len(lines) < keep+1 {
		t.Fatalf("journal too short to truncate: %d lines", len(lines))
	}
	if err := os.WriteFile(journal, bytes.Join(lines[:keep], nil), 0o644); err != nil {
		t.Fatal(err)
	}

	// Second incarnation resumes; its lone worker must only be asked for
	// the three missing cells.
	coord, err := NewCoordinator(CoordConfig{
		Spec:     testSpec(),
		LeaseTTL: 2 * time.Second,
		Journal:  journal,
		Resume:   true,
		Out:      out,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := coord.Progress().Resumed; got != 3 {
		t.Fatalf("resumed %d cells from truncated journal, want 3", got)
	}
	base, stop, err := coord.Start(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	werr := make(chan error, 1)
	go func() {
		werr <- RunWorker(ctx, WorkerConfig{ID: "resumer", Coordinator: base, Lab: lab})
	}()
	if err := coord.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-werr; err != nil {
		t.Fatalf("worker: %v", err)
	}

	p := coord.Progress()
	if p.Resumed != 3 {
		t.Fatalf("final resumed count %d, want 3", p.Resumed)
	}
	for _, w := range p.Workers {
		if w.ID == "resumer" && w.CellsDone != 3 {
			t.Fatalf("resumer ran %d cells, want exactly the 3 missing ones", w.CellsDone)
		}
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatalf("resumed merged output differs from reference\n got %d bytes\nwant %d bytes", len(got), len(ref))
	}
}

// TestCompleteJournalResumeFinishesImmediately: a coordinator built on
// an already-complete journal is done before any worker connects and
// writes the merged output at construction.
func TestCompleteJournalResumeFinishesImmediately(t *testing.T) {
	ref, lab := refMerged(t)
	dir := t.TempDir()
	journal := filepath.Join(dir, "journal.jsonl")

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	runCluster(ctx, t, CoordConfig{
		Spec:     testSpec(),
		LeaseTTL: 2 * time.Second,
		Journal:  journal,
		Out:      filepath.Join(dir, "first.jsonl"),
	}, lab, 2)

	out := filepath.Join(dir, "again.jsonl")
	coord, err := NewCoordinator(CoordConfig{
		Spec: testSpec(), Journal: journal, Resume: true, Out: out,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-coord.Done():
	default:
		t.Fatal("coordinator with complete journal should be done at construction")
	}
	if err := coord.Err(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("resume-only merged output differs from reference")
	}
}

// TestDivergenceAbortsClusterRun: a worker that reports bytes
// different from an earlier result for the same cell aborts the whole
// run with a divergence report.
func TestDivergenceAbortsClusterRun(t *testing.T) {
	_, lab := refMerged(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	coord, err := NewCoordinator(CoordConfig{
		Spec:     testSpec(),
		LeaseTTL: time.Minute,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	base, stop, err := coord.Start(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	client := NewClient(base, 1)
	if _, _, err := client.Register(ctx, "honest"); err != nil {
		t.Fatal(err)
	}
	lr, err := client.Lease(ctx, "honest")
	if err != nil || lr.Status != leaseGranted {
		t.Fatalf("lease: %+v err=%v", lr, err)
	}
	row, err := RunCell(ctx, lab, *lr.Cell, lab.CharOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := MarshalRow(row)
	if _, err := client.Report(ctx, resultRequest{
		Worker: "honest", LeaseID: lr.LeaseID, Key: lr.Cell.Key(),
		Value: raw, Hash: HashValue(raw),
	}); err != nil {
		t.Fatal(err)
	}

	// A corrupted re-execution of the same cell (divergent bytes).
	bad := json.RawMessage(`{"corrupt":true}`)
	_, err = client.Report(ctx, resultRequest{
		Worker: "flaky", LeaseID: "L999999", Key: lr.Cell.Key(),
		Value: bad, Hash: HashValue(bad),
	})
	if !errors.Is(err, ErrRunAborted) {
		t.Fatalf("divergent report returned %v, want ErrRunAborted", err)
	}
	if err := coord.Wait(ctx); err == nil {
		t.Fatal("coordinator should report the divergence as its terminal error")
	}
	p := coord.Progress()
	if !p.Aborted || p.Divergence == nil || p.Divergence.Cell != lr.Cell.Key() {
		t.Fatalf("progress after divergence: %+v", p)
	}
	// New lease requests are refused.
	if _, err := client.Lease(ctx, "honest"); !errors.Is(err, ErrRunAborted) {
		t.Fatalf("lease after abort = %v, want ErrRunAborted", err)
	}
}

// scrapeProm fetches url and runs it through the strict exposition
// parser, failing the test on either error.
func scrapeProm(t *testing.T, url string) map[string]*obs.PromFamily {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	fams, err := obs.ParseProm(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: strict parser rejected output: %v", url, err)
	}
	return fams
}

// TestClusterTelemetry: a two-worker in-process cluster must (a)
// balance the fleet counters on /cluster/metrics against the grid size,
// (b) name its slowest completed cell on /progress, and (c) serve
// strict-parser-clean /metrics documents from both the coordinator
// process and a worker registry.
func TestClusterTelemetry(t *testing.T) {
	_, lab := refMerged(t)

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Long TTL and no speculation: every cell completes exactly once, so
	// the fleet counter balance below is an identity, not a likelihood.
	coord, err := NewCoordinator(CoordConfig{
		Spec:            testSpec(),
		LeaseTTL:        time.Minute,
		StragglerFactor: -1,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	base, stop, err := coord.Start(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	regs := []*obs.Registry{obs.NewRegistry(), obs.NewRegistry()}
	errs := make(chan error, len(regs))
	for i := range regs {
		cfg := WorkerConfig{
			ID:          "tm-" + string(rune('a'+i)),
			Coordinator: base,
			Lab:         lab,
			Metrics:     regs[i],
		}
		go func() { errs <- RunWorker(ctx, cfg) }()
	}
	if err := coord.Wait(ctx); err != nil {
		t.Fatalf("coordinator: %v (progress: %+v)", err, coord.Progress())
	}
	for range regs {
		if err := <-errs; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}
	cells := float64(len(coord.Order()))

	// (a) /cluster/metrics: per-worker cells_done sums to the grid size,
	// and the merged aggregate sample agrees.
	fams := scrapeProm(t, base+"/cluster/metrics")
	fam := fams["tevot_worker_cells_done_total"]
	if fam == nil {
		t.Fatalf("/cluster/metrics missing tevot_worker_cells_done_total; families: %d", len(fams))
	}
	var perWorker, aggregate float64
	for _, s := range fam.Samples {
		switch {
		case s.Labels["worker"] != "":
			perWorker += s.Value
		case s.Labels["aggregate"] == "cluster":
			aggregate = s.Value
		default:
			t.Fatalf("cells_done sample with unexpected labels: %+v", s)
		}
	}
	if perWorker != cells || aggregate != cells {
		t.Fatalf("cells_done balance: per-worker sum %v, aggregate %v, want %v", perWorker, aggregate, cells)
	}

	// (b) /progress: the slowest cell is one of the grid's, timed from
	// its lease to its result.
	resp, err := http.Get(base + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	var p Progress
	err = json.NewDecoder(resp.Body).Decode(&p)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/progress not JSON: %v", err)
	}
	inGrid := false
	for _, c := range coord.Order() {
		inGrid = inGrid || c.Key() == p.SlowestCell
	}
	if !inGrid || p.SlowestSec <= 0 {
		t.Fatalf("/progress slowest cell %q (%v s): want a grid cell and positive seconds", p.SlowestCell, p.SlowestSec)
	}

	// (c) /metrics from the coordinator process and from a worker
	// registry both round-trip through the strict parser (scrapeProm
	// fails the test otherwise).
	coordFams := scrapeProm(t, base+"/metrics")
	if _, ok := coordFams["tevot_dist_leases_granted_total"]; !ok {
		t.Fatalf("coordinator /metrics missing dist lease counters; families: %d", len(coordFams))
	}
	wsrv := httptest.NewServer(obs.PromHandler(regs[0]))
	defer wsrv.Close()
	workerFams := scrapeProm(t, wsrv.URL)
	if _, ok := workerFams["tevot_worker_cells_done_total"]; !ok {
		t.Fatalf("worker /metrics missing worker counters; families: %d", len(workerFams))
	}
}

// waitFor polls cond until true or the context/test deadline trips.
func waitFor(t *testing.T, ctx context.Context, cond func() bool) {
	t.Helper()
	for !cond() {
		select {
		case <-ctx.Done():
			t.Fatalf("timeout waiting for condition: %v", ctx.Err())
		case <-time.After(10 * time.Millisecond):
		}
	}
}
