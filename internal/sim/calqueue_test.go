package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"tevot/internal/netlist"
)

// drainAll pulls every event out of the queue in drain order, consuming
// whole equal-time batches the way cycleFast does.
func drainAll(q *calQueue) []event {
	var out []event
	for q.next() {
		b := q.bucket()
		t := b[q.pos].t
		for q.pos < len(b) && b[q.pos].t == t {
			out = append(out, q.take())
		}
	}
	return out
}

// sortedCopy is the oracle order: (t, net) ascending, matching the heap
// kernel's pop order.
func sortedCopy(evs []event) []event {
	c := append([]event(nil), evs...)
	sort.SliceStable(c, func(i, j int) bool {
		if c[i].t != c[j].t {
			return c[i].t < c[j].t
		}
		return c[i].net < c[j].net
	})
	return c
}

func checkOrder(t *testing.T, got, evs []event) {
	t.Helper()
	want := sortedCopy(evs)
	if len(got) != len(want) {
		t.Fatalf("drained %d events, pushed %d", len(got), len(want))
	}
	for i := range want {
		if got[i].t != want[i].t || got[i].net != want[i].net {
			t.Fatalf("event %d: got (%v, %d), want (%v, %d)",
				i, got[i].t, got[i].net, want[i].t, want[i].net)
		}
	}
}

// TestCalQueueRandomOrder: random pushes drain in exact (t, net) order,
// across delay ranges that do and do not fit the wheel horizon, and
// across dense buckets of hundreds to thousands of events — the
// multipliers' common case, where sortCur spreads the bucket before
// its insertion sort finishes it.
func TestCalQueueRandomOrder(t *testing.T) {
	for _, spread := range []float64{3, 50, 1e5} {
		rng := rand.New(rand.NewSource(int64(spread)))
		var q calQueue
		q.init(1, spread)
		for trial := 0; trial < 20; trial++ {
			q.reset()
			var pushed []event
			for i := 0; i < 300; i++ {
				e := event{
					t:   1 + rng.Float64()*spread*3,
					net: netlist.NetID(rng.Intn(40)),
				}
				q.push(e)
				pushed = append(pushed, e)
			}
			checkOrder(t, drainAll(&q), pushed)
		}
	}

	// Dense sets on a width that is not a power of two, so k*width and
	// t*invW round the way real gate delays do.
	const minD, k0 = 0.7, 3
	var probe calQueue
	probe.init(minD, 5)
	w := probe.width
	dense := []struct {
		name string
		gen  func(rng *rand.Rand) []event
	}{
		{"clustered within 1% of a bucket", func(rng *rand.Rand) []event {
			evs := make([]event, 1500)
			for i := range evs {
				evs[i] = event{t: (k0 + 0.4 + 0.01*rng.Float64()) * w, net: netlist.NetID(rng.Intn(4000))}
			}
			return evs
		}},
		{"equal t on several nets", func(rng *rand.Rand) []event {
			ts := []float64{(k0 + 0.1) * w, (k0 + 0.5) * w, (k0 + 0.5) * w * (1 + 1e-15), (k0 + 0.9) * w}
			evs := make([]event, 800)
			for i := range evs {
				evs[i] = event{t: ts[rng.Intn(len(ts))], net: netlist.NetID(rng.Intn(40))}
			}
			return evs
		}},
		{"bucket edges", func(rng *rand.Rand) []event {
			var evs []event
			for i := 0; i < 600; i++ {
				e := float64(k0+rng.Intn(2)) * w
				for _, tt := range []float64{e, math.Nextafter(e, 0), math.Nextafter(e, math.Inf(1))} {
					evs = append(evs, event{t: tt, net: netlist.NetID(rng.Intn(100))})
				}
			}
			return evs
		}},
		{"two full buckets", func(rng *rand.Rand) []event {
			evs := make([]event, 2000)
			for i := range evs {
				evs[i] = event{t: (k0 + 2*rng.Float64()) * w, net: netlist.NetID(rng.Intn(4000))}
			}
			return evs
		}},
	}
	for _, set := range dense {
		t.Run(set.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			var q calQueue
			q.init(minD, 5)
			for trial := 0; trial < 5; trial++ {
				q.reset()
				evs := set.gen(rng)
				for _, e := range evs {
					q.push(e)
				}
				checkOrder(t, drainAll(&q), evs)
			}
		})
	}

	// Slot indices of -1 and n before the clamp. Through push every
	// event in a bucket has an offset in [0, 1) bucket widths, so the
	// clamp is a guard: a fused multiply-add in spread's offset (which
	// Go may emit on some architectures) can read 1.0. Load times whose
	// slot reads -1 and n straight into the bucket, beside 300 regular
	// ones.
	rng := rand.New(rand.NewSource(11))
	var q calQueue
	q.init(minD, 5)
	var evs []event
	for i := 0; i < 300; i++ {
		e := event{t: rng.Float64() * w, net: netlist.NetID(rng.Intn(40))}
		q.push(e)
		evs = append(evs, e)
	}
	n := len(evs) + 4
	for i, tt := range []float64{-1.5 * w / float64(n), -w / float64(n), w, w * (1 + 0.5/float64(n))} {
		e := event{t: tt, net: netlist.NetID(i)}
		q.buckets[0] = append(q.buckets[0], e)
		q.count++
		q.wheelN++
		evs = append(evs, e)
	}
	t.Run("slot index outside the bucket", func(t *testing.T) { checkOrder(t, drainAll(&q), evs) })
}

// TestCalQueueInterleavedPush mimics the kernel's actual pattern: drain a
// batch, then push events scheduled relative to the batch time. Every
// pushed time exceeds the current batch time by at least the minimum
// delay, as in simulation.
func TestCalQueueInterleavedPush(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var q calQueue
	q.init(2, 20)
	var all []event
	push := func(e event) {
		q.push(e)
		all = append(all, e)
	}
	for i := 0; i < 50; i++ {
		push(event{t: 2 + rng.Float64()*20, net: netlist.NetID(i % 16)})
	}
	var got []event
	for q.next() {
		b := q.bucket()
		bt := b[q.pos].t
		for q.pos < len(b) && b[q.pos].t == bt {
			got = append(got, q.take())
		}
		// Schedule a few successor events from this batch, heap-style.
		if len(all) < 400 {
			for k := 0; k < 3; k++ {
				push(event{t: bt + 2 + rng.Float64()*18, net: netlist.NetID(rng.Intn(16))})
			}
		}
	}
	checkOrder(t, got, all)
}

// TestCalQueuePushIntoCurrentBucket pins the floating-point corner the
// queue must survive: a push whose time lands — by construction here,
// by rounding in real runs — in the bucket currently being drained. The
// event must still come out in (t, net) order relative to the bucket's
// unconsumed tail.
func TestCalQueuePushIntoCurrentBucket(t *testing.T) {
	var q calQueue
	q.init(2, 8) // width 1, so bucket 0 spans [0, 1)
	q.push(event{t: 0.10, net: 3})
	q.push(event{t: 0.70, net: 1})
	q.push(event{t: 0.90, net: 2})
	if !q.next() {
		t.Fatal("queue empty after pushes")
	}
	// Consume the t=0.10 batch, leaving the sorted tail [0.70, 0.90].
	if e := q.take(); e.t != 0.10 {
		t.Fatalf("first event at %v, want 0.10", e.t)
	}
	// Mid-drain pushes into bucket 0: one interior, one equal-time with a
	// smaller net (must sort before net 2), one at the tail.
	q.push(event{t: 0.50, net: 9})
	q.push(event{t: 0.90, net: 0})
	q.push(event{t: 0.95, net: 4})
	want := []event{{t: 0.50, net: 9}, {t: 0.70, net: 1}, {t: 0.90, net: 0}, {t: 0.90, net: 2}, {t: 0.95, net: 4}}
	var got []event
	for q.next() {
		got = append(got, q.take())
	}
	if len(got) != len(want) {
		t.Fatalf("drained %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].t != want[i].t || got[i].net != want[i].net {
			t.Fatalf("event %d: got (%v, %d), want (%v, %d)",
				i, got[i].t, got[i].net, want[i].t, want[i].net)
		}
	}
}

// TestCalQueueResetReuse pins the cross-cycle regression where the last
// drained bucket kept its consumed events and replayed them after reset:
// draining, resetting, and refilling must never resurrect old events.
func TestCalQueueResetReuse(t *testing.T) {
	var q calQueue
	q.init(1, 4)
	for cycle := 0; cycle < 5; cycle++ {
		q.reset()
		evs := []event{
			{t: 1.5 + float64(cycle), net: 1},
			{t: 2.5 + float64(cycle), net: 2},
		}
		for _, e := range evs {
			q.push(e)
		}
		got := drainAll(&q)
		checkOrder(t, got, evs)
	}
}

// TestCalQueueOverflowRebase: when every pending event is beyond the
// wheel horizon, the drain must jump straight to the overflow's earliest
// bucket and keep global order.
func TestCalQueueOverflowRebase(t *testing.T) {
	var q calQueue
	q.init(1, 1e6) // horizon capped at maxBuckets buckets
	evs := []event{
		{t: 0.9e6, net: 5},
		{t: 1.0e6, net: 1},
		{t: 0.5, net: 2}, // near event drains first
	}
	for _, e := range evs {
		q.push(e)
	}
	checkOrder(t, drainAll(&q), evs)
}
