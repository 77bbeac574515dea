package sim

import "tevot/internal/netlist"

// The fast kernel: calendar-queue scheduling over the netlist's CSR
// view with truth-table LUT gate evaluation.
//
// Why it is bit-identical to the reference heap kernel:
//
//   - Scheduling. Both kernels drain pending events in (t, net) order:
//     the heap by its comparator, the calendar queue by ordering its
//     first non-empty bucket by (t, net) on entry (a linear-time
//     spread, then an insertion sort) and extracting the earliest time
//     batch from it (see calQueue). Event timestamps are t + delays[g]
//     computed from the same t values in the same order, so every
//     float is bit-equal.
//   - Evaluation. A gate's LUT lookup (lut[g]>>inVal[g]&1) equals
//     Kind.Eval by construction (cells.TestLUTMatchesEval); inVal is
//     the packed image of val over the gate's input pins, updated by
//     one XOR per CSR fanout edge exactly when a net transitions.
//     Within a time batch all net transitions are applied before any
//     gate re-evaluates, in both kernels, and the mark/stamp
//     deduplication evaluates each gate once per batch, so the order
//     gates appear in the batch cannot affect the outcome.
//   - Inertial cancellation. The per-net generation counters and the
//     projected-value array are shared code: a pending transition dies
//     when its generation is stale, in either scheduler.
//
// The one observable difference allowed by design is none: Delay,
// Settled, Toggles, Events, and the observer stream all match. (The
// Events counter was permitted to drop during the rewrite, but the
// batch semantics above preserve it exactly, so the differential suite
// pins it too.)

// cycleFast runs one cycle's event processing with the calendar-queue
// kernel. The caller (Runner.Cycle) has already settled val, resynced
// inVal, reset the result, and seeded proj/initOut.
func (r *Runner) cycleFast(cur []bool) {
	nl := r.nl
	res := &r.res
	r.cq.reset()

	// Apply the new vector at t = 0 and seed the first gate batch.
	r.curStamp++
	r.batch = r.batch[:0]
	for i, pi := range nl.PrimaryInputs {
		if r.val[pi] != cur[i] {
			r.val[pi] = cur[i]
			r.proj[pi] = cur[i]
			res.Events++
			if r.observer != nil {
				r.observer(pi, 0, cur[i])
			}
			if oi := r.outIndex[pi]; oi != 0 {
				// Degenerate but legal: an input wired straight out.
				res.Toggles[oi-1] = append(res.Toggles[oi-1], Toggle{0, cur[i]})
			}
			r.fanout(pi)
		}
	}
	r.evalBatchFast(0)

	// Event loop: drain strictly increasing time batches. The calendar
	// queue hands out events in (t, net) order through its cursor; a
	// batch is the run of equal-t events at the cursor. No push happens
	// while the run is consumed (only evalBatchFast pushes), so the
	// bucket slice captured here cannot grow under the inner loop.
	for r.cq.next() {
		b := r.cq.bucket()
		t := b[r.cq.pos].t
		r.curStamp++
		r.batch = r.batch[:0]
		for r.cq.pos < len(b) && b[r.cq.pos].t == t {
			ev := r.cq.take()
			if ev.gen != r.gen[ev.net] {
				continue // cancelled by a later re-evaluation
			}
			if r.val[ev.net] == ev.val {
				continue
			}
			r.val[ev.net] = ev.val
			res.Events++
			if r.observer != nil {
				r.observer(ev.net, t, ev.val)
			}
			if oi := r.outIndex[ev.net]; oi != 0 {
				res.Toggles[oi-1] = append(res.Toggles[oi-1], Toggle{t, ev.val})
				if t > res.Delay {
					res.Delay = t
				}
			}
			r.fanout(ev.net)
		}
		r.evalBatchFast(t)
	}
}

// fanout propagates a net transition to its readers: one XOR per CSR
// edge keeps each reading gate's packed input bitset exact (a net wired
// to two pins of a gate flips both), and mark deduplicates the gate
// into the current evaluation batch.
func (r *Runner) fanout(net netlist.NetID) {
	csr := r.csr
	for e := csr.FanoutStart[net]; e < csr.FanoutStart[net+1]; e++ {
		edge := csr.FanoutEdges[e]
		g := netlist.GateID(edge >> 2)
		r.inVal[g] ^= 1 << uint(edge&3)
		r.mark(g)
	}
}

// evalBatchFast re-evaluates each gate marked at time t by a single LUT
// lookup and schedules inertial output transitions.
func (r *Runner) evalBatchFast(t float64) {
	csr := r.csr
	for _, gi := range r.batch {
		v := r.lut[gi]>>r.inVal[gi]&1 == 1
		out := netlist.NetID(csr.GateOut[gi])
		if v == r.proj[out] {
			continue
		}
		// Inertial model: cancel any pending event and either schedule
		// the new transition or swallow the pulse entirely.
		r.gen[out]++
		r.proj[out] = v
		if v != r.val[out] {
			r.cq.push(event{t: t + r.delays[gi], net: out, val: v, gen: r.gen[out]})
		}
	}
}

// rebuildInVals recomputes every gate's packed input bitset from the
// current net values — needed after an explicit-prev settle rewrites
// val outside event processing. Streaming cycles keep inVal incremental.
func (r *Runner) rebuildInVals() {
	csr := r.csr
	for gi := range r.inVal {
		base := gi * netlist.PinsPerGate
		var m uint8
		for j := 0; j < netlist.PinsPerGate; j++ {
			if in := csr.GateIn[base+j]; in >= 0 && r.val[in] {
				m |= 1 << uint(j)
			}
		}
		r.inVal[gi] = m
	}
}
