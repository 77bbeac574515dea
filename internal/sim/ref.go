package sim

// The reference kernel: the original binary-heap scheduler with
// switch-dispatch gate evaluation, preserved verbatim behind the
// refKernel switch as the differential oracle for the fast kernel.
// Delay, Settled, Toggles, Events, and the observer stream must be
// bit-identical between the two on every circuit; the differential
// fuzz suite (diff_test.go) and the kernel-equivalence step in
// scripts/check.sh enforce this.

// cycleRef runs one cycle's event processing with the heap kernel. The
// caller (Runner.Cycle) has already settled val, reset the result, and
// seeded initOut.
func (r *Runner) cycleRef(cur []bool) {
	nl := r.nl
	res := &r.res
	r.heap = r.heap[:0]
	copy(r.proj, r.val)

	// Apply the new vector at t = 0 and seed the first gate batch.
	r.newBatch()
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
			for _, g := range nl.Nets[pi].Fanout {
				r.mark(g)
			}
		}
	}
	r.evalBatchRef(0)

	// Event loop: drain strictly increasing time batches.
	for len(r.heap) > 0 {
		t := r.heap[0].t
		r.newBatch()
		for len(r.heap) > 0 && r.heap[0].t == t {
			ev := r.heap.pop()
			if ev.gv&^1 != r.gen[ev.net] {
				continue // cancelled by a later re-evaluation
			}
			v := ev.val()
			if r.val[ev.net] == v {
				continue
			}
			r.val[ev.net] = v
			res.Events++
			if r.observer != nil {
				r.observer(ev.net, t, v)
			}
			if oi := r.outIndex[ev.net]; oi != 0 {
				res.Toggles[oi-1] = append(res.Toggles[oi-1], Toggle{t, v})
				if t > res.Delay {
					res.Delay = t
				}
			}
			for _, g := range nl.Nets[ev.net].Fanout {
				r.mark(g)
			}
		}
		r.evalBatchRef(t)
	}
}

// evalBatchRef re-evaluates each gate marked at time t through the cell
// library's switch dispatch and schedules inertial output transitions.
func (r *Runner) evalBatchRef(t float64) {
	var in [3]bool
	for _, gi := range r.batch {
		g := &r.nl.Gates[gi]
		for j, id := range g.Inputs {
			in[j] = r.val[id]
		}
		v := g.Kind.Eval(in[:len(g.Inputs)])
		out := g.Output
		if v == r.proj[out] {
			continue
		}
		// Inertial model: cancel any pending event and either schedule
		// the new transition or swallow the pulse entirely. gen counts
		// in steps of two, leaving the event's low bit to the value.
		r.gen[out] += 2
		r.proj[out] = v
		if v != r.val[out] {
			gv := r.gen[out]
			if v {
				gv |= 1
			}
			r.heap.push(event{t: t + r.delays[gi], net: out, gv: gv})
		}
	}
}
