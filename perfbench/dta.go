package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"time"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/core"
	"tevot/internal/imaging"
	"tevot/internal/inject"
	"tevot/internal/sim"
	"tevot/internal/workload"
)

// dta-imaging: core.CharacterizeOpts (one shard, transition memo on)
// over INT_MUL operand streams recorded from the Sobel and Gauss
// applications on 8 synthetic 32×32 images, at two corners. One op is a
// pass over both streams at both corners.
var dtaCorners = []cells.Corner{{V: 0.85, T: 50}, {V: 0.95, T: 25}}

// dtaClockFractions are the capture periods, as fractions of the STA
// critical path at each corner, at which ground-truth errors are kept.
var dtaClockFractions = []float64{0.5, 0.7, 0.9}

const (
	dtaImages       = 8
	dtaImageSize    = 32
	dtaPairsPerImg  = 250 // per application and image
	tinyPairsPerImg = 40
)

type dtaInputs struct {
	unit    *core.FUnit
	streams []*workload.Stream
	clocks  map[cells.Corner][]float64
}

// dtaStreams records the INT_MUL operand streams of both applications
// over the image set, visiting the images in an order drawn from the
// variant: every variant sees the same images (so the same kind of
// work) in a different sequence. Gauss runs on the float pipeline, so
// its INT_MUL stream is the FP_MUL stream converted to integers, as the
// experiments package derives datasets for units an app does not use.
func dtaStreams(v int, perImg int) ([]*workload.Stream, error) {
	sobel := &workload.Stream{Name: "sobel"}
	gauss := &workload.Stream{Name: "gauss"}
	for _, id := range rand.New(rand.NewSource(int64(v))).Perm(dtaImages) {
		img := imaging.Synthetic(id, dtaImageSize, dtaImageSize)
		rs, rg := inject.NewRecording(perImg), inject.NewRecording(perImg)
		inject.SobelApp.Run(img, rs)
		inject.GaussApp.Run(img, rg)
		s, err := rs.Stream(circuits.IntMul32)
		if err != nil {
			return nil, err
		}
		g, err := rg.Stream(circuits.FPMul32)
		if err != nil {
			return nil, err
		}
		sobel.Pairs = append(sobel.Pairs, s.Pairs...)
		for _, p := range g.Pairs {
			gauss.Pairs = append(gauss.Pairs, workload.OperandPair{
				A: uint32(int32(circuits.Float32FromBits(p.A))),
				B: uint32(int32(circuits.Float32FromBits(p.B))),
			})
		}
	}
	return []*workload.Stream{sobel, gauss}, nil
}

// dtaSetup builds the unit, warms STA at both corners, and records the
// streams; it returns the inputs plus the netlist and STA times.
func dtaSetup(v int, tiny bool) (in dtaInputs, buildS, staS float64, err error) {
	t0 := time.Now()
	in.unit, err = core.NewFUnit(circuits.IntMul32)
	if err != nil {
		return in, 0, 0, err
	}
	buildS = time.Since(t0).Seconds()
	t0 = time.Now()
	in.clocks = make(map[cells.Corner][]float64)
	for _, c := range dtaCorners {
		st, err := in.unit.Static(c)
		if err != nil {
			return in, 0, 0, err
		}
		for _, f := range dtaClockFractions {
			in.clocks[c] = append(in.clocks[c], f*st.Delay)
		}
	}
	staS = time.Since(t0).Seconds()
	per := dtaPairsPerImg
	if tiny {
		per = tinyPairsPerImg
	}
	in.streams, err = dtaStreams(v, per)
	return in, buildS, staS, err
}

// dtaPass characterizes every stream at every corner and returns the
// digest of the traces. It runs one shard. With the default of one shard
// per vCPU, a pass waits for the slower shard, and the shards slow each
// other. On a shared 2-vCPU host, six runs alternating between two
// shards and one spread 15% and 11% (IQR/median of the median pass
// time), and the CPU time per pass moved 32% with two shards. Shards are
// bit-identical to the sequential path, so the digests hold for both.
func dtaPass(in dtaInputs) (string, error) {
	h := sha256.New()
	for _, s := range in.streams {
		for _, c := range dtaCorners {
			tr, err := core.CharacterizeOpts(in.unit, c, s, in.clocks[c], core.CharacterizeOptions{Workers: 1})
			if err != nil {
				return "", err
			}
			hashTrace(h, tr.Delays, tr.Events, tr.Errors)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// hashTrace folds one characterization's outputs into the digest: every
// delay's bits, the event total, and every error verdict.
func hashTrace(h hash.Hash, delays []float64, events int, errs [][]bool) {
	var b [8]byte
	for _, d := range delays {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(d))
		h.Write(b[:])
	}
	binary.LittleEndian.PutUint64(b[:], uint64(events))
	h.Write(b[:])
	for _, row := range errs {
		for _, e := range row {
			if e {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		}
	}
}

func runDTA(p Params) (*Result, error) {
	v := variant(p.Seed)
	res := newResult(p.Trace)
	// Each pass's digest must equal the recorded one; smoke-sized inputs
	// have none recorded, so their first pass becomes the reference.
	want := recordedDTA(v, p.Tiny)
	same := func(dg string) bool {
		if want == "" {
			want = dg
		}
		return dg == want
	}
	// Set-up includes one checked warm-up pass, so heap growth and cold
	// caches are paid before timing and show in setup_s.
	var buildS, staS []float64
	in, setupS, err := medianSetup(3, func() (dtaInputs, error) {
		in, b, s, err := dtaSetup(v, p.Tiny)
		if err != nil {
			return in, err
		}
		buildS, staS = append(buildS, b), append(staS, s)
		dg, err := dtaPass(in)
		res.check(same(dg))
		return in, err
	})
	if err != nil {
		return nil, err
	}

	var passMs, allocMB []float64
	// Every pass starts from a collected heap, as each set-up does, so a
	// pass does not pay for the garbage of the one before it.
	untracedPass := func() error {
		runtime.GC()
		a0 := allocBytes()
		s0 := time.Now()
		dg, err := dtaPass(in)
		if err != nil {
			return err
		}
		passMs = append(passMs, msSince(s0))
		allocMB = append(allocMB, float64(allocBytes()-a0)/1e6)
		res.check(same(dg))
		return nil
	}
	if !p.Trace {
		for t0 := time.Now(); len(passMs) == 0 || time.Since(t0).Seconds() < p.Seconds; {
			if err := untracedPass(); err != nil {
				return nil, err
			}
		}
		printSamples("pass_ms", passMs)
		res.set("setup_s", setupS)
		res.set("op_ms", workTime(passMs))
		res.set("tail_ms", workTime(passMs))
		res.set("alloc_mb", median(allocMB))
		return res, nil
	}

	res.set("netlist.build_s", median(buildS))
	res.set("sta.analyze_ms", 1000*median(staS))
	led := newLedger(p, map[string]string{
		"sim.hit":    "op_ms on dta-imaging",
		"sim.miss":   "op_ms on dta-imaging, table3",
		"sim.window": "op_ms on dta-imaging",
		"core":       "op_ms on dta-imaging",
		"idle":       "op_ms on dta-imaging",
	})
	var st simTally
	var simAlloc []float64
	// Untraced and traced passes alternate, so host-speed drift during
	// the run reaches both sides of the ledger's comparison alike.
	for t0 := time.Now(); st.passes == 0 || time.Since(t0).Seconds() < p.Seconds; {
		if err := untracedPass(); err != nil {
			return nil, err
		}
		a0 := allocBytes()
		h := sha256.New()
		for _, s := range in.streams {
			for _, c := range dtaCorners {
				if err := tracedCharacterize(in.unit, c, s, in.clocks[c], led, &st, h); err != nil {
					return nil, err
				}
			}
		}
		simAlloc = append(simAlloc, float64(allocBytes()-a0)/1e6)
		st.passes++
		led.endOp()
		res.check(same(hex.EncodeToString(h.Sum(nil))))
	}
	printSamples("pass_ms", passMs)
	st.report(res)
	res.set("sim.alloc_mb", median(simAlloc))
	res.set("sim.busy_s", (led.rows["sim.hit"]+led.rows["sim.miss"]+led.rows["sim.window"])/float64(st.passes))
	led.report(res, median(passMs))
	simShare := led.shares()
	simS := simShare["sim.hit"] + simShare["sim.miss"] + simShare["sim.window"]
	claim("sim >= 90% of dta-imaging", simS, simS >= 0.9)
	return res, nil
}

// simTally accumulates the simulator tier counters of a traced run.
type simTally struct {
	passes                  int
	cycles, hits, misses    int64
	events, missEvents      int64
	hitNs, missNs, windowNs float64
	evictions               int64
	windows, prunedGateWins int64
	gates                   int
}

func (st *simTally) merge(o *simTally) {
	st.cycles += o.cycles
	st.hits += o.hits
	st.misses += o.misses
	st.events += o.events
	st.missEvents += o.missEvents
	st.hitNs += o.hitNs
	st.missNs += o.missNs
	st.windowNs += o.windowNs
	st.evictions += o.evictions
	st.windows += o.windows
	st.prunedGateWins += o.prunedGateWins
	if o.gates > 0 {
		st.gates = o.gates
	}
}

func (st *simTally) report(res *Result) {
	n := float64(st.passes)
	res.set("sim.cycles", float64(st.cycles)/n)
	res.set("sim.events", float64(st.events)/n)
	res.set("sim.memo_evictions", float64(st.evictions)/n)
	if st.hits > 0 {
		res.set("sim.hit_ns", st.hitNs/float64(st.hits))
	}
	if st.misses > 0 {
		res.set("sim.miss_ns", st.missNs/float64(st.misses))
	}
	if st.cycles > 0 {
		res.set("sim.window_ns", st.windowNs/float64(st.cycles))
		res.set("sim.ns_per_cycle", (st.hitNs+st.missNs+st.windowNs)/float64(st.cycles))
	}
	if st.missEvents > 0 {
		res.set("sim.ns_per_event", st.missNs/float64(st.missEvents))
	}
	if st.hits+st.misses > 0 {
		res.set("sim.memo_hit_ratio", float64(st.hits)/float64(st.hits+st.misses))
	}
	sl := sim.SliceStats{Gates: st.gates, Windows: st.windows, PrunedGateWindows: st.prunedGateWins}
	res.set("sim.window_pruned_ratio", sl.PrunedFraction())
}

// tracedCharacterize is core.CharacterizeOpts with Workers: 1,
// recomposed from the sim package's public calls so each tier can be
// timed: the same ≤WindowMax bitslice windows, and a timer around every
// Runner.Cycle, classified as a memo hit or a miss (re-settle plus event
// cascade) by the runner's memo counters. Its delays, event total and
// error verdicts fold into h exactly as hashTrace folds a core.Trace, so
// the digest proves it did the same work.
func tracedCharacterize(u *core.FUnit, corner cells.Corner, s *workload.Stream, clocks []float64, led *Ledger, total *simTally, h hash.Hash) error {
	n := s.Len() - 1
	t0 := time.Now()
	r, err := u.NewRunner(corner)
	if err != nil {
		return err
	}
	r.EnableMemo(0)
	delays := make([]float64, n)
	errs := make([][]bool, len(clocks))
	for k := range errs {
		errs[k] = make([]bool, n)
	}
	var tl simTally
	if err := tracedShard(r, s, clocks, delays, errs, 0, n, &tl); err != nil {
		return err
	}
	wall := time.Since(t0)
	ms, ss := r.MemoStats(), r.SliceStats()
	tl.evictions, tl.windows, tl.prunedGateWins, tl.gates = ms.Evictions, ss.Windows, ss.PrunedGateWindows, ss.Gates
	led.add("sim.hit", tl.hitNs/1e9)
	led.add("sim.miss", tl.missNs/1e9)
	led.add("sim.window", tl.windowNs/1e9)
	led.add("core", wall.Seconds()-(tl.hitNs+tl.missNs+tl.windowNs)/1e9)
	led.span(wall, 1)
	total.merge(&tl)
	hashTrace(h, delays, int(tl.events), errs)
	return nil
}

// tracedShard mirrors the per-shard loop of core.CharacterizeOpts.
func tracedShard(r *sim.Runner, s *workload.Stream, clocks []float64, delays []float64, errs [][]bool, lo, hi int, tl *simTally) error {
	prev := make([]bool, circuits.OperandBits)
	cur := make([]bool, circuits.OperandBits)
	back := make([]bool, sim.WindowMax*circuits.OperandBits)
	winVecs := make([][]bool, sim.WindowMax)
	for k := range winVecs {
		winVecs[k] = back[k*circuits.OperandBits : (k+1)*circuits.OperandBits]
	}
	winEnd := lo + 1
	circuits.EncodeOperandsInto(s.Pairs[lo].A, s.Pairs[lo].B, prev)
	for i := lo; i < hi; i++ {
		if i >= winEnd {
			m := hi - i
			if m > sim.WindowMax {
				m = sim.WindowMax
			}
			for k := 0; k < m; k++ {
				circuits.EncodeOperandsInto(s.Pairs[i+1+k].A, s.Pairs[i+1+k].B, winVecs[k])
			}
			w0 := time.Now()
			if err := r.BeginWindow(winVecs[:m]); err != nil {
				return err
			}
			tl.windowNs += float64(time.Since(w0).Nanoseconds())
			winEnd = i + m
		}
		circuits.EncodeOperandsInto(s.Pairs[i+1].A, s.Pairs[i+1].B, cur)
		hits := r.MemoStats().Hits
		c0 := time.Now()
		cy, err := r.Cycle(prev, cur)
		ns := float64(time.Since(c0).Nanoseconds())
		if err != nil {
			return err
		}
		if r.MemoStats().Hits > hits {
			tl.hits++
			tl.hitNs += ns
		} else {
			tl.misses++
			tl.missNs += ns
			tl.missEvents += int64(cy.Events)
		}
		tl.cycles++
		tl.events += int64(cy.Events)
		delays[i] = cy.Delay
		init := r.InitialOutputs()
		for k, tclk := range clocks {
			errs[k][i] = cy.ErrorAt(init, tclk)
		}
		prev = nil
	}
	return nil
}
