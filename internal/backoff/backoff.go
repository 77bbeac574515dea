// Package backoff is the repo's one shared retry-delay policy:
// exponential backoff with deterministic, per-(key, attempt) jitter.
// internal/dist uses it for the coordinator/worker HTTP client's RPC
// retries and a worker's idle polling, so a sweep's retry schedule is
// reproducible from the worker's identity alone.
//
// The jitter is intentionally NOT drawn from a math/rand source. A
// *rand.Rand is not safe for concurrent use, and the global rand makes
// runs irreproducible; both failure modes have bitten retry helpers
// that started life single-goroutine and later got shared. Instead the
// jitter factor is a pure function of (seed, key, attempt) folded
// through FNV-1a — stateless, lock-free, race-free by construction, and
// identical across processes, which is what lets a distributed sweep's
// retry traffic be replayed exactly.
package backoff

import (
	"hash/fnv"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Policy is an exponential-backoff schedule: Base doubling per attempt
// up to Max, scaled by a deterministic per-(key, attempt) jitter factor
// in [0.5, 1.5). The zero value is unusable; fill Base and Max (Seed 0
// is a valid seed). Policy is a value type with no interior state, so
// one Policy may be shared freely across goroutines.
type Policy struct {
	Base time.Duration
	Max  time.Duration
	Seed int64
}

// Delay returns the wait before retry number attempt (0-based: the
// delay after the first failed attempt is Delay(key, 0)). The key
// decorrelates concurrent retriers — requests to an endpoint, idle
// workers — so they do not thundering-herd on the same schedule.
func (p Policy) Delay(key string, attempt int) time.Duration {
	d := p.Base
	for i := 0; i < attempt && d < p.Max; i++ {
		d *= 2
	}
	if d > p.Max {
		d = p.Max
	}
	h := Hash(p.Seed+int64(attempt)*7919, key)
	jitter := 0.5 + float64(h%1000)/1000
	return time.Duration(float64(d) * jitter)
}

// Cap clamps a server-supplied delay to the policy's Max. Retry-After
// headers are attacker- (or chaos-) controlled input: a forged 429 with
// Retry-After: 100000 must not stall a worker for a day. Negative
// durations clamp to zero so callers can pass the result straight to a
// timer.
func (p Policy) Cap(d time.Duration) time.Duration {
	if d < 0 {
		return 0
	}
	if p.Max > 0 && d > p.Max {
		return p.Max
	}
	return d
}

// ParseRetryAfter parses a Retry-After header value in either of its
// two RFC 9110 forms — delta-seconds ("120") or an HTTP-date ("Fri, 07
// Aug 2026 12:00:00 GMT") — and returns the wait it encodes relative to
// now(). It reports ok=false for empty or malformed values, and clamps
// dates in the past to a zero wait. Callers are expected to bound the
// result with Policy.Cap: this function reports what the server asked
// for, not what is sane to obey.
func ParseRetryAfter(h string, now func() time.Time) (time.Duration, bool) {
	h = strings.TrimSpace(h)
	if h == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs < 0 {
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(h); err == nil {
		d := t.Sub(now())
		if d < 0 {
			d = 0
		}
		return d, true
	}
	return 0, false
}

// Hash folds a seed and a key through FNV-1a into a stable 64-bit
// value. It is the shared keyed-hash for every "deterministic but
// decorrelated" decision in the repo: backoff jitter, fault-injection
// selection, and any future sampling that must be independent of
// goroutine scheduling.
func Hash(seed int64, key string) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(seed) >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(key))
	return h.Sum64()
}
