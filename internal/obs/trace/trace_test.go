package trace

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestTracer(seed int64) (*Tracer, *Store) {
	st := NewStore(8, 2)
	return New(seed, st), st
}

func TestRootChildTree(t *testing.T) {
	tr, st := newTestTracer(1)
	ctx, root := tr.Root(context.Background(), "dist.cell")
	if root == nil {
		t.Fatal("Root returned nil span on a live tracer")
	}
	root.Annotate("cell", "INT_ADD/sobel/0.9V")
	cctx, child := Child(ctx, "dta.simulate")
	if child == nil {
		t.Fatal("Child returned nil span under a live root")
	}
	if child.TraceID() != root.TraceID() {
		t.Fatalf("child trace ID %s != root %s", child.TraceID(), root.TraceID())
	}
	_, grand := Child(cctx, "dta.merge")
	grand.End()
	child.End()
	root.End()

	rec, ok := st.Get(root.TraceID().String())
	if !ok {
		t.Fatalf("completed trace %s not in store", root.TraceID())
	}
	if rec.Spans != 3 {
		t.Fatalf("trace has %d spans, want 3", rec.Spans)
	}
	if len(rec.Roots) != 1 || rec.Roots[0].Name != "dist.cell" {
		t.Fatalf("unexpected roots: %+v", rec.Roots)
	}
	if rec.Partial {
		t.Fatal("fully-ended trace rendered as partial")
	}
	r := rec.Roots[0]
	if len(r.Children) != 1 || r.Children[0].Name != "dta.simulate" {
		t.Fatalf("root children: %+v", r.Children)
	}
	if len(r.Children[0].Children) != 1 || r.Children[0].Children[0].Name != "dta.merge" {
		t.Fatalf("grandchildren: %+v", r.Children[0].Children)
	}
	if len(r.Attrs) != 1 || r.Attrs[0].Key != "cell" {
		t.Fatalf("root attrs: %+v", r.Attrs)
	}
}

func TestNilSafety(t *testing.T) {
	var s *Span
	s.End()
	s.Annotate("k", "v")
	s.Discard()
	s.Inject(http.Header{})
	if !s.TraceID().IsZero() || !s.ID().IsZero() {
		t.Fatal("nil span has non-zero IDs")
	}
	var tr *Tracer
	ctx, sp := tr.Root(context.Background(), "x")
	if sp != nil || ctx != context.Background() {
		t.Fatal("nil tracer Root must return (ctx, nil)")
	}
	if _, sp := Child(context.Background(), "x"); sp != nil {
		t.Fatal("Child without a parent span must return nil")
	}
}

func TestDisabledPathAllocs(t *testing.T) {
	SetDefault(nil)
	ctx := context.Background()
	if n := testing.AllocsPerRun(1000, func() {
		c, s := Child(ctx, "hot")
		s.End()
		_ = c
	}); n != 0 {
		t.Fatalf("disabled Child allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		c, s := Root(ctx, "hot")
		s.End()
		_ = c
	}); n != 0 {
		t.Fatalf("disabled Root allocates %v/op, want 0", n)
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	tr, _ := newTestTracer(7)
	_, root := tr.Root(context.Background(), "serve.predict")
	h := http.Header{}
	root.Inject(h)
	v := h.Get(Header)
	if len(v) != 55 || !strings.HasPrefix(v, "00-") {
		t.Fatalf("bad traceparent %q", v)
	}
	id, parent, ok := ParseHeader(v)
	if !ok {
		t.Fatalf("ParseHeader rejected own output %q", v)
	}
	if id != root.TraceID() || parent != root.ID() {
		t.Fatalf("round trip mismatch: got (%s,%s) want (%s,%s)", id, parent, root.TraceID(), root.ID())
	}
	root.End()
}

func TestParseHeaderStrict(t *testing.T) {
	good := FormatHeader(TraceID{0xab, 1}, SpanID{0xcd, 2})
	if _, _, ok := ParseHeader(good); !ok {
		t.Fatalf("valid header %q rejected", good)
	}
	bad := []string{
		"",
		good + "x",
		good[:54],
		"01" + good[2:],                    // wrong version
		strings.Replace(good, "-", "_", 1), // wrong separator
		strings.ToUpper(good),              // uppercase hex
		FormatHeader(TraceID{}, SpanID{2}), // zero trace ID
		FormatHeader(TraceID{1}, SpanID{}), // zero span ID
		good[:53] + "zz",                   // non-hex flags
	}
	for _, v := range bad {
		if _, _, ok := ParseHeader(v); ok {
			t.Errorf("malformed header %q accepted", v)
		}
	}
}

func TestDeterministicIDs(t *testing.T) {
	a, _ := newTestTracer(42)
	b, _ := newTestTracer(42)
	_, ra := a.Root(context.Background(), "x")
	_, rb := b.Root(context.Background(), "x")
	if ra.TraceID() != rb.TraceID() || ra.ID() != rb.ID() {
		t.Fatalf("same seed produced different IDs: %s/%s vs %s/%s",
			ra.TraceID(), ra.ID(), rb.TraceID(), rb.ID())
	}
	c, _ := newTestTracer(43)
	_, rc := c.Root(context.Background(), "x")
	if rc.TraceID() == ra.TraceID() {
		t.Fatal("different seeds produced the same trace ID")
	}
}

func TestJoinContinuesRemoteTrace(t *testing.T) {
	// Worker side: root a trace and inject its header.
	wt, _ := newTestTracer(1)
	_, root := wt.Root(context.Background(), "dist.cell")
	h := http.Header{}
	root.Inject(h)

	// Coordinator side: a different tracer + store joins the trace.
	ct, cst := newTestTracer(2)
	id, parent, ok := ParseHeader(h.Get(Header))
	if !ok {
		t.Fatal("ParseHeader failed")
	}
	_, srv := ct.Join(context.Background(), "http /v1/lease", id, parent)
	if srv.TraceID() != root.TraceID() {
		t.Fatal("joined span not in the remote trace")
	}
	srv.End()

	rec, ok := cst.Get(root.TraceID().String())
	if !ok {
		t.Fatal("joined fragment not retained on the coordinator store")
	}
	// The remote parent is not in this store, so the server span
	// renders as a root of the fragment.
	if len(rec.Roots) != 1 || rec.Roots[0].Name != "http /v1/lease" {
		t.Fatalf("fragment roots: %+v", rec.Roots)
	}
	if rec.Roots[0].Parent != root.ID().String() {
		t.Fatalf("fragment parent %q, want remote %q", rec.Roots[0].Parent, root.ID())
	}
	root.End()
}

func TestDiscardDropsTrace(t *testing.T) {
	tr, st := newTestTracer(3)
	_, root := tr.Root(context.Background(), "dist.cell")
	id := root.TraceID().String()
	root.Discard()
	if _, ok := st.Get(id); ok {
		t.Fatal("discarded trace still present")
	}
	for _, s := range st.Summaries() {
		if s.ID == id {
			t.Fatal("discarded trace still listed")
		}
	}
}

func TestStoreBoundsAndSlowExemplars(t *testing.T) {
	tr, st := newTestTracer(4)
	// One slow trace, then a flood of fast ones that overflows the
	// recent ring (cap 8). The slow exemplar must survive.
	_, slow := tr.Root(context.Background(), "slow")
	time.Sleep(20 * time.Millisecond)
	slow.End()
	slowID := slow.TraceID().String()
	for i := 0; i < 50; i++ {
		_, r := tr.Root(context.Background(), "fast")
		r.End()
	}
	if _, ok := st.Get(slowID); !ok {
		t.Fatal("slow exemplar evicted by fast-trace flood")
	}
	var done, slowListed int
	for _, s := range st.Summaries() {
		switch s.State {
		case "done":
			done++
		case "slow":
			slowListed++
			if s.ID != slowID {
				// cap 2 slow exemplars; the other may be a fast one.
			}
		}
	}
	if done > 8 {
		t.Fatalf("recent ring holds %d traces, cap is 8", done)
	}
	if slowListed == 0 {
		t.Fatal("no slow exemplars listed")
	}
}

func TestActiveEvictionBounded(t *testing.T) {
	tr, st := newTestTracer(5)
	// Leak 50 root spans (never ended) into a store with capRecent 8:
	// the active set must stay bounded and count evictions.
	for i := 0; i < 50; i++ {
		tr.Root(context.Background(), "leaked")
	}
	active := 0
	for _, s := range st.Summaries() {
		if s.State == "active" {
			active++
		}
	}
	if active > 8 {
		t.Fatalf("%d active traces retained, cap is 8", active)
	}
	if st.Evicted() != 42 {
		t.Fatalf("evicted = %d, want 42", st.Evicted())
	}
}

func TestHandlerListAndGet(t *testing.T) {
	tr, st := newTestTracer(6)
	ctx, root := tr.Root(context.Background(), "dist.cell")
	_, child := Child(ctx, "dta.simulate")
	child.End()
	root.End()

	srv := httptest.NewServer(st.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list status %d", resp.StatusCode)
	}

	resp2, err := http.Get(srv.URL + "?id=" + root.TraceID().String())
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("get status %d", resp2.StatusCode)
	}

	resp3, err := http.Get(srv.URL + "?id=" + strings.Repeat("ab", 16))
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("missing trace status %d, want 404", resp3.StatusCode)
	}
}
