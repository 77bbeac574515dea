// Package trace is request-scoped distributed tracing for the TEVoT
// pipeline: real span trees (parent/child, start/end, attributes)
// rather than the aggregate per-stage histograms in internal/obs.
// One sweep cell or one /v1/predict call becomes a single trace that
// crosses process boundaries — coordinator→worker over the dist lease
// protocol, edge→worker→kernel on the serve path — stitched together
// by a traceparent-style HTTP header.
//
// Design constraints, in order:
//
//  1. Zero cost when disabled. Every CLI and benchmark that never
//     installs a tracer pays nothing: Root/Child on a nil tracer (or a
//     span-free context) return a nil *Span, and every *Span method is
//     nil-safe and allocation-free. TestMetricsHotPathAllocs pins this.
//  2. Deterministic IDs. Trace and span IDs are not random: they are
//     drawn from backoff.Mix64(seed, sequence), the repo's shared
//     keyed-hash discipline, so two runs from the same seed emit the
//     same IDs in the same order (modulo goroutine interleaving of the
//     sequence counter). IDs exist to correlate, not to be secret.
//  3. Bounded memory. Spans are retained by a Store with a fixed-size
//     recent ring plus a slowest-N exemplar list; an hours-long sweep
//     cannot grow the trace store without bound.
//
// The package imports only the standard library and internal/backoff;
// internal/obs layers on top of it (never the reverse).
package trace

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"tevot/internal/backoff"
)

// TraceID identifies one end-to-end request across processes.
type TraceID [16]byte

// IsZero reports whether the ID is the invalid all-zero ID.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the ID as 32 lowercase hex digits.
func (id TraceID) String() string { return hexEncode(id[:]) }

// SpanID identifies one span within a trace.
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero ID.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// String renders the ID as 16 lowercase hex digits.
func (id SpanID) String() string { return hexEncode(id[:]) }

const hexDigits = "0123456789abcdef"

func hexEncode(b []byte) string {
	out := make([]byte, 2*len(b))
	for i, v := range b {
		out[2*i] = hexDigits[v>>4]
		out[2*i+1] = hexDigits[v&0x0f]
	}
	return string(out)
}

func hexDecode(dst []byte, s string) bool {
	if len(s) != 2*len(dst) {
		return false
	}
	for i := range dst {
		hi, ok1 := hexVal(s[2*i])
		lo, ok2 := hexVal(s[2*i+1])
		if !ok1 || !ok2 {
			return false
		}
		dst[i] = hi<<4 | lo
	}
	return true
}

func hexVal(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	}
	return 0, false
}

// Header is the propagation header name. The value follows the W3C
// traceparent layout: "00-<32 hex trace id>-<16 hex span id>-01".
const Header = "traceparent"

// FormatHeader renders a traceparent header value for an outgoing
// request whose remote parent is span parent of trace id.
func FormatHeader(id TraceID, parent SpanID) string {
	b := make([]byte, 0, 55)
	b = append(b, "00-"...)
	b = append(b, id.String()...)
	b = append(b, '-')
	b = append(b, parent.String()...)
	b = append(b, "-01"...)
	return string(b)
}

// ParseHeader parses a traceparent header value. It is strict: exactly
// version 00, lowercase hex, single hyphens, non-zero IDs, two hex
// flag digits. Anything else returns ok=false — a malformed header
// starts a fresh trace rather than corrupting an existing one.
func ParseHeader(v string) (id TraceID, parent SpanID, ok bool) {
	// "00-" + 32 + "-" + 16 + "-" + 2 = 55 bytes.
	if len(v) != 55 || v[0] != '0' || v[1] != '0' || v[2] != '-' || v[35] != '-' || v[52] != '-' {
		return TraceID{}, SpanID{}, false
	}
	if !hexDecode(id[:], v[3:35]) || !hexDecode(parent[:], v[36:52]) {
		return TraceID{}, SpanID{}, false
	}
	if _, okHi := hexVal(v[53]); !okHi {
		return TraceID{}, SpanID{}, false
	}
	if _, okLo := hexVal(v[54]); !okLo {
		return TraceID{}, SpanID{}, false
	}
	if id.IsZero() || parent.IsZero() {
		return TraceID{}, SpanID{}, false
	}
	return id, parent, true
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed operation inside a trace. A nil *Span is a valid,
// free no-op: every method checks the receiver, so call sites never
// branch on whether tracing is enabled.
type Span struct {
	tracer  *Tracer
	traceID TraceID
	id      SpanID
	parent  SpanID
	name    string
	start   time.Time

	mu    sync.Mutex
	attrs []Attr
	end   time.Time
	ended bool
}

// TraceID returns the span's trace ID (zero for a nil span).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.traceID
}

// ID returns the span's own ID (zero for a nil span).
func (s *Span) ID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// Annotate attaches a key/value attribute to the span. Later
// annotations with the same key are kept (they are a log, not a map).
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// End marks the span finished. End is idempotent; the first call wins.
// Ending a root span completes its trace in the store.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.end = time.Now()
	s.mu.Unlock()
	if s.tracer != nil && s.tracer.store != nil {
		s.tracer.store.spanEnded(s)
	}
}

// Discard drops the span's whole trace from the store — for root spans
// opened speculatively around work that turned out not to exist (an
// idle lease poll). Discard on a non-root span only ends it.
func (s *Span) Discard() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.ended = true
	s.end = time.Now()
	s.mu.Unlock()
	if s.tracer != nil && s.tracer.store != nil {
		s.tracer.store.discard(s)
	}
}

// Inject writes the span's propagation header into h, so the receiving
// process can Join the trace. No-op on a nil span.
func (s *Span) Inject(h http.Header) {
	if s == nil {
		return
	}
	h.Set(Header, FormatHeader(s.traceID, s.id))
}

// duration returns the span's elapsed time (to now if still open).
func (s *Span) duration() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return s.end.Sub(s.start)
	}
	return time.Since(s.start)
}

// Tracer mints spans and feeds them to a Store. A nil *Tracer is a
// valid disabled tracer: Root/Join return nil spans.
type Tracer struct {
	seed  int64
	seq   atomic.Uint64
	store *Store
}

// New returns a tracer whose IDs are drawn deterministically from seed
// and which retains traces in store (required).
func New(seed int64, store *Store) *Tracer {
	if store == nil {
		store = NewStore(0, 0)
	}
	return &Tracer{seed: seed, store: store}
}

// Store returns the tracer's span store.
func (t *Tracer) Store() *Store {
	if t == nil {
		return nil
	}
	return t.store
}

// nextID returns the next 64-bit ID value, never zero (the wire format
// reserves all-zero IDs as invalid).
func (t *Tracer) nextID() uint64 {
	for {
		v := backoff.Mix64(t.seed, t.seq.Add(1))
		if v != 0 {
			return v
		}
	}
}

func put64(dst []byte, v uint64) {
	for i := 0; i < 8; i++ {
		dst[i] = byte(v >> (8 * (7 - i)))
	}
}

// Root starts a new trace with one root span and returns a context
// carrying it. On a nil tracer it returns (ctx, nil) untouched.
func (t *Tracer) Root(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	var id TraceID
	put64(id[0:8], t.nextID())
	put64(id[8:16], t.nextID())
	s := t.newSpan(id, SpanID{}, name)
	t.store.spanStarted(s, true)
	return ContextWith(ctx, s), s
}

// Join starts a span that continues a trace begun in another process:
// trace id and remote parent come from a parsed propagation header.
// On a nil tracer it returns (ctx, nil) untouched.
func (t *Tracer) Join(ctx context.Context, name string, id TraceID, parent SpanID) (context.Context, *Span) {
	if t == nil || id.IsZero() {
		return ctx, nil
	}
	s := t.newSpan(id, parent, name)
	t.store.spanStarted(s, false)
	return ContextWith(ctx, s), s
}

func (t *Tracer) newSpan(id TraceID, parent SpanID, name string) *Span {
	var sid SpanID
	put64(sid[:], t.nextID())
	return &Span{
		tracer:  t,
		traceID: id,
		id:      sid,
		parent:  parent,
		name:    name,
		start:   time.Now(),
	}
}

// child starts a span under parent within the same process.
func (t *Tracer) child(parent *Span, name string) *Span {
	s := t.newSpan(parent.traceID, parent.id, name)
	t.store.spanStarted(s, false)
	return s
}

type ctxKey struct{}

// ContextWith returns ctx carrying s. A nil span returns ctx as-is.
func ContextWith(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// Child starts a span under the span in ctx. When ctx carries no span
// (tracing disabled, or a call path never rooted), it returns
// (ctx, nil) with zero allocations — this is the hot-path form used
// throughout serve/dist/core.
func Child(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil || parent.tracer == nil {
		return ctx, nil
	}
	s := parent.tracer.child(parent, name)
	return ContextWith(ctx, s), s
}

// Inject writes the propagation header of the span in ctx (if any)
// into h.
func Inject(ctx context.Context, h http.Header) {
	FromContext(ctx).Inject(h)
}

// defaultTracer is the process-wide tracer, installed by obs.Flags.Start
// (nil until then — tracing is opt-in per process).
var defaultTracer atomic.Pointer[Tracer]

// SetDefault installs t as the process-wide tracer (nil disables).
func SetDefault(t *Tracer) { defaultTracer.Store(t) }

// Default returns the process-wide tracer, or nil when tracing is off.
func Default() *Tracer { return defaultTracer.Load() }

// Root starts a trace on the default tracer; (ctx, nil) when disabled.
func Root(ctx context.Context, name string) (context.Context, *Span) {
	return Default().Root(ctx, name)
}

// Join continues a remote trace on the default tracer.
func Join(ctx context.Context, name string, id TraceID, parent SpanID) (context.Context, *Span) {
	return Default().Join(ctx, name, id, parent)
}
