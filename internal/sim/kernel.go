package sim

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"tevot/internal/netlist"
)

// The fast kernel: a waveform pass with no event queue. A combinational
// netlist needs no global event order, because each gate's output
// transitions depend only on its inputs' transitions. So one pass per
// cycle, in topological order, computes every net's transitions
// exactly:
//
//   - every primary input that changes gets one transition at t = 0;
//   - a gate with a toggled input is visited once, after every gate
//     driving it (todo is a bitset over topological positions, scanned
//     forward; a visit sets its readers' bits, which lie ahead);
//   - a visit merges its input nets' transition times and replays the
//     inertial model against them, appending its output's transition
//     times to one per-cycle arena (wave), where its readers read them.
//
// Per-gate state lives in one 16-byte node per gate, in topological
// order: delay, output net, truth table and packed input bits. A visit
// writes the gate's final input bits and its output's final value,
// because readers read only waveforms.
//
// Why it is bit-identical to the reference heap kernel. The heap kernel
// drains events in global (t, net) order, applying every event of a
// time batch before it re-evaluates the batch's gates, and a gate's
// output changes only through its own events. The order therefore
// touches one gate in only three ways, and a visit reproduces each:
//
//   - input flips at one time form one evaluation: every pin whose next
//     transition is at the batch time flips before the gate's one
//     lookup, as a time batch flips them (a net read on two pins flips
//     both);
//   - an output event at exactly a batch's time is applied before that
//     batch re-evaluates: the gate's one pending event matures before
//     any input batch at or after its time;
//   - only a re-evaluation strictly before an event can cancel it: a
//     re-evaluation that changes the projected value cancels the
//     pending event, or schedules one at batch time + delay if there
//     was none. The gate has at most one pending event, and it is
//     pending exactly while its value differs from the projected one.
//
// The evaluation times are the batch times of the heap kernel and each
// scheduled time is the same float sum, so every time is bit-equal, and
// with them Delay, Settled, Toggles and Events. The heap kernel reports
// the primary inputs at t = 0 in input order, then every gate-driven
// transition by (t, net); with an observer attached, the cycle is
// replayed to it in that order. The differential suite (diff_test.go)
// pins all of them against the heap kernel.

// node is the waveform kernel's per-gate record, 16 bytes.
type node struct {
	delay float64
	out   netlist.NetID
	lut   uint8 // packed truth table (cells.Kind.LUT)
	in    uint8 // packed input values at the cycle start: bit j is pin j
}

// end terminates every waveform in the arena. Times are stored as
// float64 bits: non-negative floats order like their bit patterns, and
// end lies above all of them, so the earliest of a gate's input heads
// is an integer min.
const end = ^uint64(0)

// waveBase is the arena's fixed prefix: an empty waveform (index 0,
// the head of every net without transitions and of every unused pin)
// and the one transition at t = 0 that every changed primary input
// shares (index 1).
var waveBase = [...]uint64{end, 0, end}

// waveCap sizes the arena once, in entries per net: a net's transitions
// plus its end. dta-imaging's INT_MUL streams peak at 3.7 per net;
// random multiplier vectors reach 6.8, and append grows the arena for
// them.
const waveCap = 4

// transition is one gate-driven net transition, for observer replay.
type transition struct {
	t   float64
	net netlist.NetID
	val bool
}

// cycleWave runs one cycle with the waveform kernel. The caller
// (Runner.Cycle) has already settled val and every node's input bits,
// reset the result, and seeded initOut.
func (r *Runner) cycleWave(cur []bool) {
	nl, csr := r.nl, r.csr
	head, todo := r.head, r.todo
	fanStart, fanPos, topoIn := csr.FanoutStart, csr.FanoutPos, csr.TopoIn
	w := append(r.wave[:0], waveBase[:]...)
	events := 0

	for i, pi := range nl.PrimaryInputs {
		if r.val[pi] != cur[i] {
			r.val[pi] = cur[i]
			head[pi+1] = 1
			events++
			for _, e := range fanPos[fanStart[pi]:fanStart[pi+1]] {
				todo[e>>8] |= 1 << uint(e>>2&63)
			}
		}
	}

	for wi := range todo {
		for todo[wi] != 0 {
			b := todo[wi]
			todo[wi] = b & (b - 1)
			p := wi<<6 | bits.TrailingZeros64(b)
			nd := &r.nodes[p]
			pins := topoIn[p*3 : p*3+3 : p*3+3]
			i0, i1, i2 := head[pins[0]+1], head[pins[1]+1], head[pins[2]+1]
			t0, t1, t2 := w[i0], w[i1], w[i2]
			in, lut := nd.in, nd.lut
			proj := lut >> in & 1
			pend := end // the pending output event's time
			start := len(w)
			for {
				tb := min(t0, t1, t2)
				if tb == end {
					break
				}
				if pend <= tb {
					w = append(w, pend)
					pend = end
				}
				if t0 == tb {
					in ^= 1
					i0++
					t0 = w[i0]
				}
				if t1 == tb {
					in ^= 2
					i1++
					t1 = w[i1]
				}
				if t2 == tb {
					in ^= 4
					i2++
					t2 = w[i2]
				}
				if v := lut >> in & 1; v != proj {
					proj = v
					if pend == end {
						pend = math.Float64bits(math.Float64frombits(tb) + nd.delay)
					} else {
						pend = end
					}
				}
			}
			nd.in = in
			if pend != end {
				w = append(w, pend)
			}
			if len(w) == start {
				continue // every change was cancelled: the output holds
			}
			events += len(w) - start
			w = append(w, end)
			out := nd.out
			head[out+1] = int32(start)
			r.val[out] = proj == 1
			for _, e := range fanPos[fanStart[out]:fanStart[out+1]] {
				todo[e>>8] |= 1 << uint(e>>2&63)
			}
		}
	}

	res := &r.res
	res.Events = events
	for i, po := range nl.PrimaryOutputs {
		k := head[po+1]
		if k == 0 || r.outIndex[po] != int32(i+1) {
			continue
		}
		ts, v := res.Toggles[i], r.initOut[i]
		for ; w[k] != end; k++ {
			t := math.Float64frombits(w[k])
			v = !v
			ts = append(ts, Toggle{t, v})
			if t > res.Delay {
				res.Delay = t
			}
		}
		res.Toggles[i] = ts
	}
	if r.observer != nil {
		r.replay(w)
	}
	clear(head)
	r.wave = w
}

// replay hands the cycle's transitions to the observer in the heap
// kernel's order: the changed primary inputs at t = 0 in input order,
// then every gate-driven transition by (t, net). A net's transitions
// alternate from its value at the cycle start, which its final value
// and their count give.
func (r *Runner) replay(w []uint64) {
	for _, pi := range r.nl.PrimaryInputs {
		if r.head[pi+1] != 0 {
			r.observer(pi, 0, r.val[pi])
		}
	}
	trs := r.trs[:0]
	for p := range r.nodes {
		n := r.nodes[p].out
		lo := r.head[n+1]
		if lo == 0 {
			continue
		}
		hi := lo
		for w[hi] != end {
			hi++
		}
		v := r.val[n] != ((hi-lo)&1 == 1) // the value at the cycle start
		for _, tb := range w[lo:hi] {
			v = !v
			trs = append(trs, transition{math.Float64frombits(tb), n, v})
		}
	}
	slices.SortFunc(trs, func(a, b transition) int {
		return cmp.Or(cmp.Compare(a.t, b.t), cmp.Compare(a.net, b.net))
	})
	for _, tr := range trs {
		r.observer(tr.net, tr.t, tr.val)
	}
	r.trs = trs
}

// rebuildInVals recomputes every node's packed input bits from the
// current net values — needed after a settle rewrites val outside the
// kernel. Streaming cycles keep them incremental.
func (r *Runner) rebuildInVals() {
	topoIn := r.csr.TopoIn
	for p := range r.nodes {
		var m uint8
		for j, n := range topoIn[p*netlist.PinsPerGate : (p+1)*netlist.PinsPerGate] {
			if n >= 0 && r.val[n] {
				m |= 1 << uint(j)
			}
		}
		r.nodes[p].in = m
	}
}
