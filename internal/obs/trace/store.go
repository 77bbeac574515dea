package trace

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Store retains finished traces in two bounded pools: a FIFO ring of
// the most recent traces and a separate slowest-N exemplar list, so a
// burst of fast requests cannot evict the tail-latency outliers an
// operator actually wants to inspect. Active (un-ended) traces are
// tracked separately and also bounded — a leaked root span is evicted,
// not accumulated.
type Store struct {
	mu        sync.Mutex
	capRecent int
	capSlow   int

	active      map[TraceID]*traceRec
	activeOrder []TraceID   // insertion order, for eviction
	recent      []*traceRec // newest last; len <= capRecent
	slow        []*traceRec // slowest first; len <= capSlow

	evicted int64 // active traces dropped before completion
}

// traceRec is one trace's spans, in start order.
type traceRec struct {
	id      TraceID
	rooted  bool // a local Root span exists (vs. a joined fragment)
	spans   []*Span
	open    int // spans started but not yet ended
	dropped bool
}

// DefaultRecent and DefaultSlow are the store bounds used when a
// caller passes zero: enough to hold a sweep's worth of cells or a
// few seconds of serve traffic, small enough to never matter.
const (
	DefaultRecent = 256
	DefaultSlow   = 16
)

// NewStore returns a store keeping up to capRecent recent traces and
// capSlow slowest exemplars (zero or negative selects the defaults).
func NewStore(capRecent, capSlow int) *Store {
	if capRecent <= 0 {
		capRecent = DefaultRecent
	}
	if capSlow <= 0 {
		capSlow = DefaultSlow
	}
	return &Store{
		capRecent: capRecent,
		capSlow:   capSlow,
		active:    make(map[TraceID]*traceRec),
	}
}

// spanStarted records a new span. root marks a locally-rooted trace;
// joined fragments (root=false, unknown trace ID) open a record too so
// a multi-process coordinator still renders its side of the trace.
func (st *Store) spanStarted(s *Span, root bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	rec, ok := st.active[s.traceID]
	if !ok {
		// Drop IDs of already-completed traces off the order queue,
		// then bound the active set by evicting the oldest in-flight
		// trace (a leaked root span must not accumulate).
		for len(st.activeOrder) > 0 {
			if _, live := st.active[st.activeOrder[0]]; live {
				break
			}
			st.activeOrder = st.activeOrder[1:]
		}
		for len(st.active) >= st.capRecent && len(st.activeOrder) > 0 {
			oldest := st.activeOrder[0]
			st.activeOrder = st.activeOrder[1:]
			if old, live := st.active[oldest]; live {
				old.dropped = true
				delete(st.active, oldest)
				st.evicted++
			}
		}
		rec = &traceRec{id: s.traceID}
		st.active[s.traceID] = rec
		st.activeOrder = append(st.activeOrder, s.traceID)
	}
	if root {
		rec.rooted = true
	}
	rec.spans = append(rec.spans, s)
	rec.open++
}

// spanEnded records a span completion and completes the trace when its
// last span ends (rooted traces complete when the root span ends, even
// if a stray child is still open — the render marks it unfinished).
func (st *Store) spanEnded(s *Span) {
	st.mu.Lock()
	defer st.mu.Unlock()
	rec, ok := st.active[s.traceID]
	if !ok {
		return // already completed, discarded, or evicted
	}
	if rec.open > 0 {
		rec.open--
	}
	rootEnded := rec.rooted && len(rec.spans) > 0 && rec.spans[0] == s
	if rootEnded || (!rec.rooted && rec.open == 0) {
		st.completeLocked(rec)
	}
}

// discard drops s's whole trace (idle lease polls, aborted work).
func (st *Store) discard(s *Span) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if rec, ok := st.active[s.traceID]; ok {
		rec.dropped = true
		delete(st.active, s.traceID)
	}
}

func (st *Store) completeLocked(rec *traceRec) {
	delete(st.active, rec.id)
	st.recent = append(st.recent, rec)
	if len(st.recent) > st.capRecent {
		st.recent = st.recent[1:]
	}
	// Slowest-N exemplars, keyed by root-span duration.
	d := recDuration(rec)
	if len(st.slow) < st.capSlow || d > recDuration(st.slow[len(st.slow)-1]) {
		st.slow = append(st.slow, rec)
		sort.SliceStable(st.slow, func(i, j int) bool {
			return recDuration(st.slow[i]) > recDuration(st.slow[j])
		})
		if len(st.slow) > st.capSlow {
			st.slow = st.slow[:st.capSlow]
		}
	}
}

func recDuration(rec *traceRec) time.Duration {
	if len(rec.spans) == 0 {
		return 0
	}
	return rec.spans[0].duration()
}

// Summary is one trace's listing row.
type Summary struct {
	ID         string    `json:"id"`
	Name       string    `json:"name"`
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
	Spans      int       `json:"spans"`
	State      string    `json:"state"` // "active", "done", or "slow"
}

func summarize(rec *traceRec, state string) Summary {
	s := Summary{ID: rec.id.String(), Spans: len(rec.spans), State: state}
	if len(rec.spans) > 0 {
		root := rec.spans[0]
		s.Name = root.name
		s.Start = root.start
		s.DurationMS = float64(root.duration()) / float64(time.Millisecond)
	}
	return s
}

// Summaries lists the store's traces: active first (oldest first),
// then recent completions (newest first), then the slowest exemplars
// not already listed.
func (st *Store) Summaries() []Summary {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]Summary, 0, len(st.active)+len(st.recent)+len(st.slow))
	seen := make(map[TraceID]bool)
	for _, id := range st.activeOrder {
		if rec, ok := st.active[id]; ok && !seen[rec.id] {
			seen[rec.id] = true
			out = append(out, summarize(rec, "active"))
		}
	}
	for i := len(st.recent) - 1; i >= 0; i-- {
		rec := st.recent[i]
		if !seen[rec.id] {
			seen[rec.id] = true
			out = append(out, summarize(rec, "done"))
		}
	}
	for _, rec := range st.slow {
		if !seen[rec.id] {
			seen[rec.id] = true
			out = append(out, summarize(rec, "slow"))
		}
	}
	return out
}

// Evicted returns how many active traces were dropped before
// completing (store pressure — a signal the bound is too small or a
// root span leaked).
func (st *Store) Evicted() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.evicted
}

// SpanRecord is the JSON render of one span in a trace tree.
type SpanRecord struct {
	ID         string        `json:"id"`
	Parent     string        `json:"parent,omitempty"`
	Name       string        `json:"name"`
	Start      time.Time     `json:"start"`
	DurationMS float64       `json:"duration_ms"`
	Ended      bool          `json:"ended"`
	Attrs      []Attr        `json:"attrs,omitempty"`
	Children   []*SpanRecord `json:"children,omitempty"`
}

// Record is the JSON render of one whole trace.
type Record struct {
	ID      string        `json:"id"`
	Spans   int           `json:"spans"`
	Roots   []*SpanRecord `json:"roots"`
	Partial bool          `json:"partial,omitempty"` // some span still open
}

// Get renders the trace with the given hex ID as a span tree, looking
// through active, recent, and slow pools.
func (st *Store) Get(id string) (Record, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	var tid TraceID
	if !hexDecode(tid[:], id) {
		return Record{}, false
	}
	rec, ok := st.active[tid]
	if !ok {
		for i := len(st.recent) - 1; i >= 0; i-- {
			if st.recent[i].id == tid {
				rec, ok = st.recent[i], true
				break
			}
		}
	}
	if !ok {
		for _, s := range st.slow {
			if s.id == tid {
				rec, ok = s, true
				break
			}
		}
	}
	if !ok {
		return Record{}, false
	}
	return renderRec(rec), true
}

// renderRec builds the span tree. Spans whose parent is not in this
// process's store (remote parents, evicted spans) become extra roots —
// that is the normal shape of a joined fragment on a coordinator.
func renderRec(rec *traceRec) Record {
	out := Record{ID: rec.id.String(), Spans: len(rec.spans)}
	byID := make(map[SpanID]*SpanRecord, len(rec.spans))
	order := make([]*Span, len(rec.spans))
	copy(order, rec.spans)
	for _, s := range order {
		s.mu.Lock()
		sr := &SpanRecord{
			ID:    s.id.String(),
			Name:  s.name,
			Start: s.start,
			Ended: s.ended,
			Attrs: append([]Attr(nil), s.attrs...),
		}
		if s.ended {
			sr.DurationMS = float64(s.end.Sub(s.start)) / float64(time.Millisecond)
		} else {
			sr.DurationMS = float64(time.Since(s.start)) / float64(time.Millisecond)
			out.Partial = true
		}
		if !s.parent.IsZero() {
			sr.Parent = s.parent.String()
		}
		s.mu.Unlock()
		byID[s.id] = sr
	}
	for _, s := range order {
		sr := byID[s.id]
		if !s.parent.IsZero() {
			if p, ok := byID[s.parent]; ok && p != sr {
				p.Children = append(p.Children, sr)
				continue
			}
		}
		out.Roots = append(out.Roots, sr)
	}
	return out
}

// Handler serves the store over HTTP: the bare path lists trace
// summaries; "?id=<32 hex>" renders one trace as a span tree.
func (st *Store) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if id := r.URL.Query().Get("id"); id != "" {
			rec, ok := st.Get(id)
			if !ok {
				w.WriteHeader(http.StatusNotFound)
				fmt.Fprintf(w, "{\"error\":%q}\n", "trace not found: "+id)
				return
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(rec)
			return
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(map[string]any{
			"traces":  st.Summaries(),
			"evicted": st.Evicted(),
		})
	})
}

// DefaultHandler serves the default tracer's store, resolving the
// tracer per request (so it works when installed before Flags.Start).
func DefaultHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := Default()
		if t == nil || t.store == nil {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintln(w, `{"traces":[],"evicted":0,"disabled":true}`)
			return
		}
		t.store.Handler().ServeHTTP(w, r)
	})
}
