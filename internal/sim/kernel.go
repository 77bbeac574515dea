package sim

import "tevot/internal/netlist"

// The fast kernel: calendar-queue scheduling over the netlist's CSR
// view with truth-table LUT gate evaluation, on packed state:
//
//   - gates holds one 16-byte gateRec per gate: its delay, output net,
//     truth table and packed input values, so evaluating a gate reads
//     one record;
//   - ng holds one word per net, gen<<1 | projected value, and an event
//     carries the word its push left there (event.gv), so one compare
//     decides whether a popped event is live;
//   - events are 16 bytes (heap.go).
//
// Why it is bit-identical to the reference heap kernel:
//
//   - Scheduling. Both kernels drain pending events in (t, net) order:
//     the heap by its comparator, the calendar queue by ordering its
//     first non-empty bucket by (t, net) on entry (a linear-time
//     spread, then an insertion sort) and extracting the earliest time
//     batch from it (see calQueue). Event timestamps are t + delay
//     computed from the same t values in the same order, so every
//     float is bit-equal.
//   - Evaluation. A gate's LUT lookup (lut>>in&1) equals Kind.Eval by
//     construction (cells.TestLUTMatchesEval); in is the packed image
//     of val over the gate's input pins, updated by one XOR per CSR
//     fanout edge exactly when a net transitions. Within a time batch
//     all net transitions are applied before any gate re-evaluates, in
//     both kernels, and the mark/stamp deduplication evaluates each
//     gate once per batch, so the order gates appear in the batch
//     cannot affect the outcome.
//   - Batches of one event, the common case (on the multipliers nearly
//     every event has its own time), skip the stamp, mark and batch
//     list: the net's readers are evaluated straight off its CSR edges,
//     in edge order, which is the order mark would have listed them,
//     so pushes land in the same order. A gate reading the net on two
//     pins has adjacent edges ((gate, pin)-sorted CSR) and is evaluated
//     once, after both pins flip — what the batch path does.
//   - Inertial cancellation. A re-evaluation that changes a net's
//     projected value bumps its generation, killing any pending event;
//     an event is applied only if its word still equals the net's. A
//     live event always changes its net (it was pushed because its
//     value differed from val, and only the net's own live event moves
//     val), so the heap kernel's equal-value skip never fires here.
//     Generations are 31 bits and the queue is empty between cycles, so
//     a stale event could only be mistaken for live after 2³¹
//     re-evaluations of one net within one cycle.
//   - Projected values. At the end of every cycle each net's projected
//     bit equals val (every live event has been applied). The settle
//     paths keep it so: rebuildInVals after a full re-evaluation, xorFan
//     for each net a window settle flips. The heap kernel instead copies
//     val into proj at the start of each cycle.
//
// Delay, Settled, Toggles, Events and the observer stream all match;
// the differential suite (diff_test.go) pins each of them.

// gateRec is the fast kernel's per-gate record, 16 bytes.
type gateRec struct {
	delay float64
	out   netlist.NetID
	lut   uint8 // packed truth table (cells.Kind.LUT)
	in    uint8 // packed input values: bit j is pin j
}

// cycleFast runs one cycle's event processing with the calendar-queue
// kernel. The caller (Runner.Cycle) has already settled val (and with
// it every gate's packed inputs and every net's projected bit), reset
// the result, and seeded initOut.
func (r *Runner) cycleFast(cur []bool) {
	nl := r.nl
	r.cq.reset()
	events := 0

	// Apply the new vector at t = 0 and seed the first gate batch.
	r.newBatch()
	for i, pi := range nl.PrimaryInputs {
		if r.val[pi] != cur[i] {
			r.ng[pi] ^= 1 // an undriven net's projection follows val
			events++
			r.apply(pi, 0, cur[i])
			r.fanout(pi)
		}
	}
	r.evalBatch(0)

	// Event loop: drain strictly increasing time batches. The calendar
	// queue hands out events in (t, net) order through its cursor; a
	// batch is the run of equal-t events at the cursor. next enters a
	// bucket, and the batches inside it are drained here until it is
	// exhausted. The bucket slice is re-fetched after each batch, whose
	// evaluation may have pushed into it; no push happens while a batch
	// is consumed, so the slice cannot grow under the inner loop.
	for r.cq.next() {
		for {
			b := r.cq.bucket()
			pos := r.cq.pos
			if pos == len(b) {
				break
			}
			t := b[pos].t
			if pos+1 == len(b) || b[pos+1].t != t {
				// A batch of one event: no stamp, mark or batch list.
				ev := r.cq.take()
				if ev.gv == r.ng[ev.net] {
					events++
					r.apply(ev.net, t, ev.val())
					r.evalReaders(ev.net, t)
				}
				continue
			}
			r.newBatch()
			for r.cq.pos < len(b) && b[r.cq.pos].t == t {
				ev := r.cq.take()
				if ev.gv != r.ng[ev.net] {
					continue // cancelled by a later re-evaluation
				}
				events++
				r.apply(ev.net, t, ev.val())
				r.fanout(ev.net)
			}
			r.evalBatch(t)
		}
	}
	r.res.Events = events
}

// apply moves net to v at time t, reporting the transition when an
// observer is attached or the net is a primary output.
func (r *Runner) apply(net netlist.NetID, t float64, v bool) {
	r.val[net] = v
	if r.observer != nil || r.outIndex[net] != 0 {
		r.report(net, t, v)
	}
}

// report hands a transition to the observer and, when the net is a
// primary output, records its toggle and the delay. At t = 0 such a net
// is a primary input wired straight out: degenerate but legal.
func (r *Runner) report(net netlist.NetID, t float64, v bool) {
	if r.observer != nil {
		r.observer(net, t, v)
	}
	if oi := r.outIndex[net]; oi != 0 {
		res := &r.res
		res.Toggles[oi-1] = append(res.Toggles[oi-1], Toggle{t, v})
		if t > res.Delay {
			res.Delay = t
		}
	}
}

// evalReaders flips net's readers' input bits and re-evaluates each
// reader at t, in CSR edge order: the batch of one event.
func (r *Runner) evalReaders(net netlist.NetID, t float64) {
	csr := r.csr
	edges := csr.FanoutEdges[csr.FanoutStart[net]:csr.FanoutStart[net+1]]
	for k, edge := range edges {
		g := &r.gates[edge>>2]
		g.in ^= 1 << uint(edge&3)
		if k+1 < len(edges) && edges[k+1]>>2 == edge>>2 {
			continue // the gate's next pin reads this net too
		}
		if ev, ok := r.eval(g, t); ok {
			r.cq.push(ev)
		}
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
		r.gates[g].in ^= 1 << uint(edge&3)
		r.mark(g)
	}
}

// evalBatch re-evaluates each gate marked at time t.
func (r *Runner) evalBatch(t float64) {
	for _, gi := range r.batch {
		if ev, ok := r.eval(&r.gates[gi], t); ok {
			r.cq.push(ev)
		}
	}
}

// eval re-evaluates one gate at time t by a single LUT lookup and
// applies the inertial model: a new projected value bumps the output's
// generation, cancelling any pending event, and is returned for
// scheduling unless it equals the present value, in which case the
// pulse is swallowed.
func (r *Runner) eval(g *gateRec, t float64) (event, bool) {
	v := uint32(g.lut >> g.in & 1)
	w := r.ng[g.out]
	if v == w&1 {
		return event{}, false
	}
	w = (w | 1) + 1 | v // next generation, projected value v
	r.ng[g.out] = w
	return event{t: t + g.delay, net: g.out, gv: w}, r.val[g.out] != (v == 1)
}

// rebuildInVals recomputes every gate's packed input bitset and every
// net's projected bit from the current net values — needed after an
// explicit-prev settle rewrites val outside event processing. Streaming
// cycles keep both incremental.
func (r *Runner) rebuildInVals() {
	csr := r.csr
	for gi := range r.gates {
		base := gi * netlist.PinsPerGate
		var m uint8
		for j := 0; j < netlist.PinsPerGate; j++ {
			if in := csr.GateIn[base+j]; in >= 0 && r.val[in] {
				m |= 1 << uint(j)
			}
		}
		r.gates[gi].in = m
	}
	for n, v := range r.val {
		w := r.ng[n] &^ 1
		if v {
			w |= 1
		}
		r.ng[n] = w
	}
}
