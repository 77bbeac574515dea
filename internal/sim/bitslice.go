package sim

import (
	"fmt"

	"tevot/internal/netlist"
)

// The bit-parallel zero-delay prepass: a bitslice evaluation of the CSR
// netlist that computes the settled value of every net for up to
// WindowMax upcoming cycles in one topological sweep, one uint64 lane
// per net with bit k holding the net's settled value at window position
// k (bit 0 is the vector the circuit is currently settled at; bits
// 1..n are the pending input vectors).
//
// The window serves the memo cache's miss path. After a memo hit the
// Runner's event state (val, and the fast kernel's packed per-gate
// input bits) still reflects an older vector; a subsequent miss must
// re-settle before simulating. Without a window that settle is a full
// zero-delay re-evaluation (Netlist.EvalInto) plus a complete
// input-bitset rebuild — O(gates) LUT work per miss. With a window the
// settle becomes pure bit extraction: flip exactly the nets whose lane
// bits differ between the settled-at position and the target position,
// fixing each reading gate's packed inputs with one XOR per fanout
// edge. Nets whose lane is constant across the window are dropped from
// the dirty list up front, and gates reading only constant-lane nets
// are pruned from the prepass entirely — the
// SliceStats pruned-gate counters quantify how much of the netlist
// the window proves cold. (The kernel itself is untouched: a cycle
// that misses the cache still computes its exact transitions, which is
// what keeps memo-on results bit-identical.)
//
// The prepass is exact, not approximate: zero-delay settled values are
// free of timing, so evaluating 64 vectors as 64 bit-lanes through the
// gates' truth tables in topological order reproduces Netlist.EvalInto
// bit-for-bit on every lane.

// WindowMax is the maximum number of pending cycles BeginWindow accepts:
// 63 pending vectors plus the settled base vector fill the 64 lanes of
// a uint64 bitslice.
const WindowMax = 63

// SliceStats snapshots the bitslice-prepass counters of a Runner.
type SliceStats struct {
	// Windows counts BeginWindow calls that engaged a window.
	Windows int64
	// PrunedGateWindows accumulates, over all windows, the number of
	// gates whose every input lane was constant across the window —
	// gates the prepass proves cold and skips entirely.
	PrunedGateWindows int64
	// Gates is the netlist's gate count, the per-window denominator.
	Gates int
}

// PrunedFraction returns the mean fraction of gates pruned per window.
func (s SliceStats) PrunedFraction() float64 {
	if s.Windows == 0 || s.Gates == 0 {
		return 0
	}
	return float64(s.PrunedGateWindows) / (float64(s.Windows) * float64(s.Gates))
}

// bitslice is the per-Runner window state.
type bitslice struct {
	active bool
	lanes  []uint64 // per-net settled-value lanes
	nLanes int      // valid lanes: 1 base + pending vectors
	keys   []uint64 // packed pending vectors, kw words each, for matching
	kw     int      // key words per vector
	next   int      // lane index the next Cycle's cur must match
	valPos int      // lane index r.val is settled at, -1 if none
	dirty  []int32  // nets whose lane is not constant across the window

	windows     int64
	prunedTotal int64
}

// BeginWindow engages a zero-delay bitslice window over the next
// len(vecs) streaming cycles: vecs[k] must be the cur vector of the
// k-th upcoming Cycle(nil, cur) call. It requires the fast kernel, an
// enabled memo cache that has keyed at least one cycle (the window's
// base lane is the vector the circuit is logically settled at), and
// 1..WindowMax vectors of the netlist's input width.
//
// The window is advisory: if a subsequent Cycle's inputs diverge from
// the declared vectors (or an explicit prev re-settles the circuit),
// the runner falls back to the windowless path for that settle —
// results are identical either way.
func (r *Runner) BeginWindow(vecs [][]bool) error {
	if r.refKernel {
		return fmt.Errorf("sim: BeginWindow requires the fast kernel")
	}
	if r.memo == nil || !r.keyValid || !r.settled {
		return fmt.Errorf("sim: BeginWindow requires an enabled memo cache and at least one completed Cycle")
	}
	if len(vecs) < 1 || len(vecs) > WindowMax {
		return fmt.Errorf("sim: BeginWindow got %d vectors; want 1..%d", len(vecs), WindowMax)
	}
	ni := len(r.nl.PrimaryInputs)
	for k, v := range vecs {
		if len(v) != ni {
			return fmt.Errorf("sim: BeginWindow vector %d has %d inputs, want %d", k, len(v), ni)
		}
	}
	s := &r.slice
	nl, csr := r.nl, r.csr
	if s.lanes == nil {
		s.lanes = make([]uint64, nl.NumNets())
		s.kw = (ni + 63) / 64
		s.keys = make([]uint64, 0, WindowMax*s.kw)
		s.dirty = make([]int32, 0, nl.NumNets())
	}

	// Seed every lane by broadcasting the current net value: undriven
	// nets (neither input, constant, nor gate output) keep whatever the
	// event state holds, exactly as EvalInto would leave them.
	lanes := s.lanes
	for i, v := range r.val {
		if v {
			lanes[i] = ^uint64(0)
		} else {
			lanes[i] = 0
		}
	}
	if nl.Const1 >= 0 {
		lanes[nl.Const1] = ^uint64(0)
	}
	if nl.Const0 >= 0 {
		lanes[nl.Const0] = 0
	}
	// Lane bit 0: the logically settled base vector. Bits 1..n: the
	// pending vectors, also packed into match keys.
	s.keys = s.keys[:len(vecs)*s.kw]
	for i, pi := range nl.PrimaryInputs {
		lane := uint64(0)
		if r.lastVec[i] {
			lane = 1
		}
		for k, v := range vecs {
			if v[i] {
				lane |= 1 << uint(k+1)
			}
		}
		lanes[pi] = lane
	}
	for k, v := range vecs {
		packBits(v, s.keys[k*s.kw:(k+1)*s.kw])
	}

	// Topological bitslice evaluation: one truth-table minterm expansion
	// per gate evaluates all 64 lanes at once. Unused pins read a zero
	// lane; the LUT replicates across cleared high bits (cells.Kind.LUT),
	// so minterms with an unused pin set contribute nothing and the
	// expansion is exact at every arity.
	for p := range r.nodes {
		nd := &r.nodes[p]
		pins := csr.TopoIn[p*3 : p*3+3] // netlist.PinsPerGate
		var in0, in1, in2 uint64
		if n := pins[0]; n >= 0 {
			in0 = lanes[n]
		}
		if n := pins[1]; n >= 0 {
			in1 = lanes[n]
		}
		if n := pins[2]; n >= 0 {
			in2 = lanes[n]
		}
		lut := nd.lut
		var out uint64
		for m := uint8(0); m < 8; m++ {
			if lut>>m&1 == 0 {
				continue
			}
			t := ^uint64(0)
			if m&1 != 0 {
				t &= in0
			} else {
				t &= ^in0
			}
			if m&2 != 0 {
				t &= in1
			} else {
				t &= ^in1
			}
			if m&4 != 0 {
				t &= in2
			} else {
				t &= ^in2
			}
			out |= t
		}
		lanes[nd.out] = out
	}

	// Dirty list: nets whose settled value changes anywhere in the
	// window. Everything else is provably cold for the whole window and
	// never touched by a lane settle.
	s.nLanes = len(vecs) + 1
	mask := ^uint64(0)
	if s.nLanes < 64 {
		mask = 1<<uint(s.nLanes) - 1
	}
	s.dirty = s.dirty[:0]
	for net, lane := range lanes {
		if v := lane & mask; v != 0 && v != mask {
			s.dirty = append(s.dirty, int32(net))
		}
	}

	// Pruned-gate accounting: gates none of whose input nets are dirty,
	// counted once each through a fresh visit stamp.
	r.newBatch()
	active := 0
	for _, net := range s.dirty {
		for e := csr.FanoutStart[net]; e < csr.FanoutStart[net+1]; e++ {
			g := csr.FanoutEdges[e] >> 2
			if r.stamp[g] != r.curStamp {
				r.stamp[g] = r.curStamp
				active++
			}
		}
	}
	s.prunedTotal += int64(nl.NumGates() - active)
	s.windows++

	s.next = 1
	if r.valStale {
		s.valPos = -1
	} else {
		s.valPos = 0
	}
	s.active = true
	return nil
}

// SliceStats snapshots the bitslice-prepass counters.
func (r *Runner) SliceStats() SliceStats {
	return SliceStats{
		Windows:           r.slice.windows,
		PrunedGateWindows: r.slice.prunedTotal,
		Gates:             r.nl.NumGates(),
	}
}

// sliceMatch advances the window cursor if the packed cur vector equals
// the declared pending vector, returning its lane index; any divergence
// (or an exhausted window) deactivates the window and returns -1.
func (r *Runner) sliceMatch() int {
	s := &r.slice
	if !s.active {
		return -1
	}
	if s.next >= s.nLanes {
		s.active = false
		return -1
	}
	key := s.keys[(s.next-1)*s.kw : s.next*s.kw]
	for i, w := range r.packCur {
		if key[i] != w {
			s.active = false
			return -1
		}
	}
	li := s.next
	s.next++
	return li
}

// sliceSettle moves the event state (val and the packed per-gate input
// bitsets) to the settled state of window lane target by bit
// extraction, touching only nets whose value actually changes. From a
// known lane position only the window's dirty nets are scanned; from an
// unknown position every net is compared against its lane bit.
func (r *Runner) sliceSettle(target int) {
	s := &r.slice
	if s.valPos == target {
		return
	}
	lanes := s.lanes
	if s.valPos >= 0 {
		from, to := uint(s.valPos), uint(target)
		for _, net := range s.dirty {
			lane := lanes[net]
			if (lane>>from^lane>>to)&1 != 0 {
				r.val[net] = lane>>to&1 != 0
				r.xorFan(netlist.NetID(net))
			}
		}
	} else {
		to := uint(target)
		for net := range lanes {
			v := lanes[net]>>to&1 != 0
			if r.val[net] != v {
				r.val[net] = v
				r.xorFan(netlist.NetID(net))
			}
		}
	}
	s.valPos = target
}

// xorFan fixes each reading gate's packed input bits after val[net]
// flipped outside the kernel.
func (r *Runner) xorFan(net netlist.NetID) {
	csr := r.csr
	for _, e := range csr.FanoutPos[csr.FanoutStart[net]:csr.FanoutStart[net+1]] {
		r.nodes[e>>2].in ^= 1 << uint(e&3)
	}
}
