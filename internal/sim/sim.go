// Package sim is the gate-level timing simulator: the stand-in for the
// paper's back-annotated ModelSim runs. Given a netlist and a per-gate
// delay annotation (from internal/sta or a parsed SDF file) it
// simulates one clock cycle at a time — the circuit settled at the
// previous input vector, the new vector applied at t = 0 — and reports
// the cycle's dynamic delay (time of the last primary-output toggle),
// the settled output values, and whether a capture register clocked at
// any candidate period would latch a wrong value.
//
// Gates use the inertial delay model: a scheduled output change is
// cancelled if the gate re-evaluates to its present value before the
// change matures, so pulses shorter than a gate delay are swallowed, as
// in an event-driven HDL simulator's default mode. The default kernel
// computes each cycle gate by gate in topological order, from the
// transition times of each gate's inputs, with no event queue
// (kernel.go); an event-driven heap kernel is kept as its oracle.
package sim

import (
	"fmt"
	"math"

	"tevot/internal/netlist"
)

// Toggle is one recorded output transition.
type Toggle struct {
	T   float64 // ps after the clock edge
	Val bool
}

// CycleResult describes one simulated cycle. The slices are owned by the
// Runner and are valid only until the next Cycle call; use Clone to keep
// them.
type CycleResult struct {
	// Delay is the dynamic delay: the time of the last toggle on any
	// primary output, 0 if no output toggled.
	Delay float64
	// Settled holds the final primary-output values (equal to the
	// zero-delay evaluation of the new input vector).
	Settled []bool
	// Toggles records each primary output's transitions, in time order.
	Toggles [][]Toggle
	// Events counts processed net transitions (simulation effort).
	Events int
}

// ErrorAt reports whether sampling at clock period tclk (ps) yields any
// output bit different from the settled value — a timing error in the
// paper's sense. A capture register latches, per output, the last toggle
// strictly before tclk (a transition at the sampling instant is missed)
// on top of initial, the outputs' values at the cycle start.
func (r *CycleResult) ErrorAt(initial []bool, tclk float64) bool {
	for i, ts := range r.Toggles {
		v := initial[i]
		for _, tg := range ts {
			if tg.T < tclk {
				v = tg.Val
			} else {
				break
			}
		}
		if v != r.Settled[i] {
			return true
		}
	}
	return false
}

// Clone deep-copies the result so it survives subsequent Cycle calls.
func (r *CycleResult) Clone() *CycleResult {
	c := &CycleResult{Delay: r.Delay, Events: r.Events}
	c.Settled = append([]bool(nil), r.Settled...)
	c.Toggles = make([][]Toggle, len(r.Toggles))
	for i, ts := range r.Toggles {
		c.Toggles[i] = append([]Toggle(nil), ts...)
	}
	return c
}

// Observer receives every net transition during event processing; used by
// the VCD writer. The callback must not retain the arguments' referents.
type Observer func(net netlist.NetID, t float64, val bool)

// Runner simulates cycles over one netlist with one delay annotation.
// It is not safe for concurrent use; create one Runner per goroutine.
//
// Two kernels share this state. The default (NewRunner) is the fast
// kernel: one waveform pass per cycle over the gates in topological
// order, with per-gate truth-table LUT evaluation. The reference kernel
// (NewRefRunner) is the original binary-heap/switch-dispatch event loop,
// kept as the differential oracle: both produce bit-identical Delay,
// Settled, Toggles, Events, and observer streams on every circuit.
type Runner struct {
	nl     *netlist.Netlist
	delays []float64

	val []bool // current value per net

	outIndex []int32 // net -> primary-output index + 1, or 0
	initOut  []bool  // output values at cycle start (previous settled)

	stamp    []uint32 // per-gate visit stamp for batch deduplication
	curStamp uint32
	batch    []netlist.GateID

	res      CycleResult
	observer Observer
	settled  bool // val holds a settled state from a previous cycle

	// Transition memo cache (memo.go). packPrev always holds the packed
	// key of the vector the circuit is logically settled at (once
	// keyValid); lastVec is that vector itself, kept for re-settling
	// after a hit leaves the event state stale (valStale).
	memo     *memoCache
	keyValid bool
	valStale bool
	packPrev []uint64
	packCur  []uint64
	keyBuf   []byte
	lastVec  []bool
	slice    bitslice // fast kernel: zero-delay window prepass (bitslice.go)

	// Event-kernel effort: the cycles (and their events) that ran the
	// kernel rather than replaying a memo entry.
	cascadeCycles, cascadeEvents int64

	// refKernel selects the heap oracle; the fields below it belong to
	// one kernel each.
	refKernel bool
	heap      eventHeap // ref kernel: pending-event min-heap
	proj      []bool    // ref kernel: projected value per net after pending events
	gen       []uint32  // ref kernel: event generation per net, in steps of two

	csr   *netlist.CSR // fast kernel: flattened fanout/pin arrays
	nodes []node       // fast kernel: per-gate record, in topological order
	head  []int32      // fast kernel: per net+1, its waveform's start in wave
	wave  []uint64     // fast kernel: the cycle's transition times (kernel.go)
	todo  []uint64     // fast kernel: gates to visit, by topological position
	trs   []transition // fast kernel: observer replay scratch
}

// NewRunner creates a Runner using the fast kernel. delays must hold one
// propagation delay (ps) per gate, as produced by sta.GateDelays or
// sdf.File.Apply.
func NewRunner(nl *netlist.Netlist, delays []float64) (*Runner, error) {
	return newRunner(nl, delays, false)
}

// NewRefRunner creates a Runner using the reference heap kernel — the
// differential oracle the fast kernel is verified against. It is
// intentionally slow (per-event heap percolation, switch-dispatch gate
// evaluation); use it only for equivalence testing and debugging.
func NewRefRunner(nl *netlist.Netlist, delays []float64) (*Runner, error) {
	return newRunner(nl, delays, true)
}

func newRunner(nl *netlist.Netlist, delays []float64, refKernel bool) (*Runner, error) {
	if len(delays) != len(nl.Gates) {
		return nil, fmt.Errorf("sim: %d delays for %d gates", len(delays), len(nl.Gates))
	}
	for gi, d := range delays {
		if d <= 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			return nil, fmt.Errorf("sim: gate %q has invalid delay %v", nl.Gates[gi].Name, d)
		}
	}
	if _, err := nl.TopoOrder(); err != nil {
		return nil, err
	}
	r := &Runner{
		nl:        nl,
		delays:    delays,
		val:       make([]bool, nl.NumNets()),
		outIndex:  make([]int32, nl.NumNets()),
		initOut:   make([]bool, len(nl.PrimaryOutputs)),
		stamp:     make([]uint32, nl.NumGates()),
		refKernel: refKernel,
	}
	for i, po := range nl.PrimaryOutputs {
		r.outIndex[po] = int32(i + 1)
	}
	r.res.Settled = make([]bool, len(nl.PrimaryOutputs))
	r.res.Toggles = make([][]Toggle, len(nl.PrimaryOutputs))
	if refKernel {
		r.proj = make([]bool, nl.NumNets())
		r.gen = make([]uint32, nl.NumNets())
		return r, nil
	}
	r.csr = nl.CSR()
	r.nodes = make([]node, nl.NumGates())
	for p, gi := range r.csr.Topo {
		g := &nl.Gates[gi]
		r.nodes[p] = node{delay: delays[gi], out: g.Output, lut: g.Kind.LUT()}
	}
	r.head = make([]int32, nl.NumNets()+1)
	r.todo = make([]uint64, (nl.NumGates()+63)/64)
	r.wave = make([]uint64, 0, len(waveBase)+waveCap*nl.NumNets())
	return r, nil
}

// Ref reports whether this Runner uses the reference heap kernel.
func (r *Runner) Ref() bool { return r.refKernel }

// SetObserver registers a transition observer (nil to remove). While an
// observer is attached, the transition memo cache is bypassed — a
// cached hit skips event processing and could not replay the per-net
// transition stream — so the observer sees every toggle of every cycle
// even with the memo enabled.
func (r *Runner) SetObserver(o Observer) { r.observer = o }

// InitialOutputs returns the output values at the start of the last
// simulated cycle (the settled outputs of the previous vector). The slice
// is owned by the Runner.
func (r *Runner) InitialOutputs() []bool { return r.initOut }

// Netlist returns the simulated netlist.
func (r *Runner) Netlist() *netlist.Netlist { return r.nl }

// Cycle simulates one clock cycle: the circuit is settled at prev, then
// cur is applied at t = 0 and events propagate to quiescence. If prev is
// nil the settled state from the previous Cycle call is reused (the
// normal streaming mode, which also makes consecutive cycles share state
// exactly like the real register file would).
//
// With the transition memo enabled (EnableMemo) and no observer
// attached, a transition seen before returns its cached outcome without
// event processing — bit-identical to a simulated cycle, rehydrated
// into the same reusable result buffers.
func (r *Runner) Cycle(prev, cur []bool) (*CycleResult, error) {
	nl := r.nl
	if len(cur) != len(nl.PrimaryInputs) {
		return nil, fmt.Errorf("sim: got %d current inputs, want %d", len(cur), len(nl.PrimaryInputs))
	}
	if prev == nil && !r.settled {
		return nil, fmt.Errorf("sim: first Cycle call requires an explicit previous vector")
	}
	if prev != nil && len(prev) != len(nl.PrimaryInputs) {
		return nil, fmt.Errorf("sim: got %d previous inputs, want %d", len(prev), len(nl.PrimaryInputs))
	}

	// Transition memo: pack the (prev, cur) key and advance the window
	// cursor before anything else, so hit and miss paths stay in step
	// with the stream position. A hit returns the cached cycle and
	// leaves the event state stale; the next miss re-settles it below.
	li := -1
	useMemo := false
	if r.memo != nil {
		packBits(cur, r.packCur)
		if prev != nil {
			packBits(prev, r.packPrev)
			r.keyValid = true
		}
		li = r.sliceMatch()
		useMemo = r.keyValid && r.observer == nil
		if useMemo {
			if e := r.memo.lookup(r.memoKey()); e != nil {
				r.rehydrate(e)
				r.valStale = true
				r.finishMemo(cur)
				r.settled = true
				return &r.res, nil
			}
		}
	}

	if prev != nil {
		if err := nl.EvalInto(prev, r.val); err != nil {
			return nil, err
		}
		if !r.refKernel {
			// The settle rewrote val wholesale; resync the packed
			// per-gate input bitsets the fast kernel maintains
			// incrementally during event processing.
			r.rebuildInVals()
		}
		r.slice.valPos = -1
		r.valStale = false
	} else if r.valStale {
		// A memo hit skipped event processing; re-settle at the vector
		// the circuit is logically at — by lane extraction when a
		// bitslice window covers it, by full re-evaluation otherwise.
		if r.slice.active && li >= 1 {
			r.sliceSettle(li - 1)
		} else {
			if err := nl.EvalInto(r.lastVec, r.val); err != nil {
				return nil, err
			}
			if !r.refKernel {
				r.rebuildInVals()
			}
		}
		r.valStale = false
	}
	for i, po := range nl.PrimaryOutputs {
		r.initOut[i] = r.val[po]
	}
	res := &r.res
	res.Delay = 0
	res.Events = 0
	for i := range res.Toggles {
		res.Toggles[i] = res.Toggles[i][:0]
	}

	if r.refKernel {
		r.cycleRef(cur)
	} else {
		r.cycleWave(cur)
	}
	r.cascadeCycles++
	r.cascadeEvents += int64(res.Events)

	for i, po := range nl.PrimaryOutputs {
		res.Settled[i] = r.val[po]
	}
	if r.slice.active && li >= 1 {
		// val is now settled at cur, which the window knows as lane li.
		r.slice.valPos = li
	}
	if useMemo {
		r.memo.store(r.memoKey(), res, r.initOut)
	}
	if r.memo != nil {
		r.finishMemo(cur)
	}
	r.settled = true
	return res, nil
}

// finishMemo rolls the memo key state forward after a cycle: the circuit
// is now logically settled at cur, so cur's packed form becomes the next
// cycle's prev key and lastVec remembers the vector itself for
// re-settling after hits.
func (r *Runner) finishMemo(cur []bool) {
	r.packPrev, r.packCur = r.packCur, r.packPrev
	r.keyValid = true
	copy(r.lastVec, cur)
}

// CascadeStats reports the cycles, and their events, that ran the event
// kernel: every Cycle call that was not served by the transition memo.
// The counts survive DisableMemo.
func (r *Runner) CascadeStats() (cycles, events int64) {
	return r.cascadeCycles, r.cascadeEvents
}

// newBatch opens an evaluation batch: an empty gate list and a fresh
// visit stamp. When the stamp wraps, every gate's stamp is cleared, so
// no gate can carry the new stamp from 2³² batches ago.
func (r *Runner) newBatch() {
	r.batch = r.batch[:0]
	r.curStamp++
	if r.curStamp == 0 {
		clear(r.stamp)
		r.curStamp = 1
	}
}

// mark queues a gate for re-evaluation in the current batch, once: the
// re-evaluation deduplication that keeps a gate whose inputs change
// multiple times at the same timestamp down to a single evaluation.
func (r *Runner) mark(g netlist.GateID) {
	if r.stamp[g] != r.curStamp {
		r.stamp[g] = r.curStamp
		r.batch = append(r.batch, g)
	}
}
