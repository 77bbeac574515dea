package sim

import "encoding/binary"

// The transition memo cache: for a fixed netlist and delay annotation, a
// cycle's entire observable outcome — Delay, Settled, Toggles, and the
// Events count — is a pure function of the input transition
// (prev, cur). The circuit is acyclic, so the settled state it starts
// the cycle from is the zero-delay evaluation of prev (no event
// history), and every scheduler decision downstream is deterministic in
// that state (the same argument that makes sharded characterization
// bit-identical, see core.CharacterizeOptsContext). Real workloads —
// TEVoT's Sobel/Gaussian operand streams above all — repeat transitions
// heavily, so a bounded cache keyed by the packed (prev, cur) vectors
// short-circuits full event simulation on every repeat.
//
// The cache is per-Runner (hence per-netlist, per-corner,
// per-annotation) and single-goroutine like the Runner itself: no
// locks, no sharing. A hit rehydrates the immutable cached record into
// the Runner's reusable result buffers, preserving the CycleResult
// aliasing contract and allocating nothing in steady state. A miss runs
// the kernel as usual and stores a compact deep copy; once the cache is
// full the least-recently-used transition is evicted and its entry's
// storage is reused, so long pure-miss streams settle into a bounded
// footprint.
//
// Observers force a bypass: a cached hit skips event processing
// entirely, so it cannot replay the per-net transition stream an
// Observer (e.g. the VCD writer) must see. While an observer is
// attached, Cycle neither consults nor fills the cache; results remain
// bit-identical either way.

// DefaultMemoSize is the transition-cache entry cap EnableMemo applies
// when the caller passes size <= 0. At 64 Ki transitions the cache
// covers the repeat set of the imaging operand streams with room to
// spare. An entry copies the cycle's toggles, so a full cache is large
// on the toggle-heavy multipliers: measured on random streams, an
// entry holds about 1.1 KB of live heap on INT_ADD, 1.4 KB on FP_ADD,
// 7.5 KB on INT_MUL and 6.0 KB on FP_MUL, so 64 Ki entries are about
// 72, 92, 490 and 390 MB, per Runner.
const DefaultMemoSize = 1 << 16

// MemoStats is a point-in-time snapshot of a Runner's transition-cache
// counters.
type MemoStats struct {
	Enabled   bool
	Entries   int
	Capacity  int
	Hits      int64
	Misses    int64
	Evictions int64
}

// HitRate returns Hits / (Hits + Misses), 0 before any lookup.
func (s MemoStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// memoEntry is one cached transition outcome. Toggles are flattened
// into one slice with per-output offsets so an entry costs two slice
// headers instead of one per output.
type memoEntry struct {
	key     string // packed prev|cur vectors, raw little-endian bytes
	delay   float64
	events  int
	init    []bool // output values at cycle start (settled at prev)
	settled []bool
	toggles []Toggle
	togOff  []int32 // len(outputs)+1 offsets into toggles
	prev    int32   // LRU links (entry indices; -1 terminates)
	next    int32
}

// memoCache is the bounded LRU map from transition key to cycle record.
type memoCache struct {
	capEntries int
	m          map[string]int32
	ents       []memoEntry
	head, tail int32 // MRU at head, LRU at tail; -1 when empty

	hits, misses, evictions int64
}

func newMemoCache(capEntries int) *memoCache {
	if capEntries <= 0 {
		capEntries = DefaultMemoSize
	}
	hint := capEntries
	if hint > 4096 {
		hint = 4096
	}
	return &memoCache{
		capEntries: capEntries,
		m:          make(map[string]int32, hint),
		head:       -1,
		tail:       -1,
	}
}

// lookup returns the cached record for key, promoting it to
// most-recently-used, or nil on a miss. The key slice is only read; the
// map access through string(key) does not allocate.
func (c *memoCache) lookup(key []byte) *memoEntry {
	idx, ok := c.m[string(key)]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	c.moveToFront(idx)
	return &c.ents[idx]
}

// store records a just-simulated cycle under key, evicting the
// least-recently-used entry (and reusing its storage) when full. Called
// only on the miss path, so its allocations (the key string, the map
// slot, first-use slice growth) are amortized against a full event
// simulation.
func (c *memoCache) store(key []byte, res *CycleResult, init []bool) {
	var idx int32
	if len(c.ents) < c.capEntries {
		c.ents = append(c.ents, memoEntry{})
		idx = int32(len(c.ents) - 1)
	} else {
		idx = c.tail
		c.detach(idx)
		delete(c.m, c.ents[idx].key)
		c.evictions++
	}
	e := &c.ents[idx]
	e.key = string(key)
	e.delay = res.Delay
	e.events = res.Events
	e.init = append(e.init[:0], init...)
	e.settled = append(e.settled[:0], res.Settled...)
	e.toggles = e.toggles[:0]
	e.togOff = e.togOff[:0]
	for _, ts := range res.Toggles {
		e.togOff = append(e.togOff, int32(len(e.toggles)))
		e.toggles = append(e.toggles, ts...)
	}
	e.togOff = append(e.togOff, int32(len(e.toggles)))
	c.m[e.key] = idx
	c.attachFront(idx)
}

func (c *memoCache) attachFront(idx int32) {
	e := &c.ents[idx]
	e.prev = -1
	e.next = c.head
	if c.head >= 0 {
		c.ents[c.head].prev = idx
	}
	c.head = idx
	if c.tail < 0 {
		c.tail = idx
	}
}

func (c *memoCache) detach(idx int32) {
	e := &c.ents[idx]
	if e.prev >= 0 {
		c.ents[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next >= 0 {
		c.ents[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
}

func (c *memoCache) moveToFront(idx int32) {
	if c.head == idx {
		return
	}
	c.detach(idx)
	c.attachFront(idx)
}

// EnableMemo turns on the transition memo cache with the given entry
// cap (<= 0 selects DefaultMemoSize). Enabling discards any previous
// cache. The cache makes streaming Cycle results bit-identical to the
// uncached kernel; see the package comment in this file for the purity
// argument. An attached Observer bypasses the cache (see SetObserver).
func (r *Runner) EnableMemo(capEntries int) {
	r.memo = newMemoCache(capEntries)
	r.keyValid = false
	kw := (len(r.nl.PrimaryInputs) + 63) / 64
	if len(r.packPrev) != kw {
		r.packPrev = make([]uint64, kw)
		r.packCur = make([]uint64, kw)
		r.keyBuf = make([]byte, 0, 2*8*kw)
		r.lastVec = make([]bool, len(r.nl.PrimaryInputs))
	}
}

// DisableMemo removes the transition cache (and deactivates any
// bitslice window, which exists to serve the cache's miss path). If a
// hit left the event state stale, the next Cycle re-settles it, so
// disabling mid-stream is safe.
func (r *Runner) DisableMemo() {
	r.memo = nil
	r.slice.active = false
	// A stale val (from a memo hit) must still be settled on the next
	// Cycle; keep lastVec/valStale as they are — Cycle handles it even
	// with the cache gone, as long as lastVec survives.
}

// MemoStats snapshots the transition-cache counters.
func (r *Runner) MemoStats() MemoStats {
	if r.memo == nil {
		return MemoStats{}
	}
	return MemoStats{
		Enabled:   true,
		Entries:   len(r.memo.m),
		Capacity:  r.memo.capEntries,
		Hits:      r.memo.hits,
		Misses:    r.memo.misses,
		Evictions: r.memo.evictions,
	}
}

// packBits packs a bool vector into little-endian uint64 words.
func packBits(v []bool, dst []uint64) {
	for i := range dst {
		dst[i] = 0
	}
	for i, b := range v {
		if b {
			dst[i>>6] |= 1 << uint(i&63)
		}
	}
}

// memoKey serializes the packed (prev, cur) words into the Runner's
// reusable key buffer.
func (r *Runner) memoKey() []byte {
	buf := r.keyBuf[:0]
	for _, w := range r.packPrev {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	for _, w := range r.packCur {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	r.keyBuf = buf
	return buf
}

// rehydrate replays a cached record into the Runner's reusable result
// buffers: the returned CycleResult aliases the same storage as a
// simulated one and stays valid until the next Cycle call. Events
// reports the cached simulation cost (what the kernel would have
// processed), keeping effort accounting bit-identical to the uncached
// run.
func (r *Runner) rehydrate(e *memoEntry) {
	res := &r.res
	res.Delay = e.delay
	res.Events = e.events
	copy(res.Settled, e.settled)
	copy(r.initOut, e.init)
	for i := range res.Toggles {
		res.Toggles[i] = append(res.Toggles[i][:0], e.toggles[e.togOff[i]:e.togOff[i+1]]...)
	}
}
