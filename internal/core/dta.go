package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/obs"
	"tevot/internal/sim"
	"tevot/internal/workload"
)

// Observability: the cycle loop counts simulated cycles (one atomic add
// per cycle — TestMetricsHotPathAllocs pins the primitive at 0 allocs,
// and BenchmarkCharacterizeParallel gates the cost); a characterization
// merges events once per shard, Label adds them per re-simulated cycle.
// Both count the cycles and events memo hits replay. The cascade
// counters count only what the event kernel ran (sim.Runner's
// CascadeStats: memo misses, and every cycle once the memo is off),
// flushed once per characterization and per Label, so with
// stage.dta.simulate.seconds they price a simulated event. The
// simulate/merge/label spans feed the stage.dta.* histograms.
var (
	mCyclesSimulated = obs.NewCounter("core.cycles_simulated")
	mSimEvents       = obs.NewCounter("core.sim_events")
	mCascadeCycles   = obs.NewCounter("sim.cascade_cycles")
	mCascadeEvents   = obs.NewCounter("sim.cascade_events")

	// Transition-memo accounting, merged once per characterization from
	// the per-shard runners; the gauge tracks the latest run's mean
	// fraction of gates the bitslice window proved cold.
	mMemoHits        = obs.NewCounter("sim.memo_hits")
	mMemoMisses      = obs.NewCounter("sim.memo_misses")
	mMemoEvictions   = obs.NewCounter("sim.memo_evictions")
	gSlicePrunedFrac = obs.NewGauge("sim.slice_pruned_gates")
)

// Trace is the outcome of dynamic timing analysis for one functional
// unit, corner, and operand stream: the per-cycle dynamic delays and,
// for each clock period of interest, the ground-truth timing errors
// (sampled-vs-settled mismatch, as a register bank would experience).
//
// Cycle i applies Stream.Pairs[i+1] with the circuit settled at
// Stream.Pairs[i]; there are Stream.Len()-1 cycles.
type Trace struct {
	FU     circuits.FU
	Corner cells.Corner
	Stream *workload.Stream

	// Delays[i] is cycle i's dynamic delay in ps.
	Delays []float64
	// ClockPeriods are the capture periods (ps) Errors was evaluated at.
	ClockPeriods []float64
	// Errors[k][i] reports whether cycle i mis-samples at ClockPeriods[k].
	Errors [][]bool

	// StaticDelay is the STA critical-path delay at the corner.
	StaticDelay float64
	// MaxDelay is the largest observed dynamic delay.
	MaxDelay float64
	// Events is the total number of simulation events (effort metric).
	// A cycle served from the transition memo reports its cached event
	// count, so Events is identical with the cache on or off.
	Events int

	// MemoHits/MemoMisses/MemoEvictions aggregate the per-shard
	// transition-memo counters (all zero on the reference kernel). A
	// shard that drops its memo stops looking up, so on a random stream
	// each shard counts at most memoProbeCycles lookups.
	MemoHits      int64
	MemoMisses    int64
	MemoEvictions int64
	// SliceWindows and SlicePrunedGateWindows aggregate the bitslice
	// prepass counters: windows engaged, and gate-windows proved cold.
	SliceWindows           int64
	SlicePrunedGateWindows int64
}

// Cycles returns the number of simulated cycles.
func (t *Trace) Cycles() int { return len(t.Delays) }

// HitRate returns the transition-memo hit rate of the characterization,
// MemoHits / (MemoHits + MemoMisses); 0 on the reference kernel.
func (t *Trace) HitRate() float64 {
	if t.MemoHits+t.MemoMisses == 0 {
		return 0
	}
	return float64(t.MemoHits) / float64(t.MemoHits+t.MemoMisses)
}

// TER returns the measured timing-error rate at clock index k.
func (t *Trace) TER(k int) float64 {
	if k < 0 || k >= len(t.Errors) || len(t.Errors[k]) == 0 {
		return 0
	}
	n := 0
	for _, e := range t.Errors[k] {
		if e {
			n++
		}
	}
	return float64(n) / float64(len(t.Errors[k]))
}

// MeanDelay returns the average dynamic delay (the quantity the paper
// plots in Fig. 3).
func (t *Trace) MeanDelay() float64 {
	if len(t.Delays) == 0 {
		return 0
	}
	s := 0.0
	for _, d := range t.Delays {
		s += d
	}
	return s / float64(len(t.Delays))
}

// CharacterizeOptions tunes how the DTA simulation executes. The zero
// value is the default strategy (parallel over GOMAXPROCS shards).
type CharacterizeOptions struct {
	// Workers is the number of parallel stream shards, each simulated by
	// its own sim.Runner. <= 0 means GOMAXPROCS; 1 forces the sequential
	// path. Results are bit-identical regardless of the value: a shard
	// starting at cycle i settles the circuit at stream pair i, which is
	// exactly the state the streaming simulation would have left behind
	// (the settled state of an acyclic circuit is its zero-delay
	// evaluation, independent of event history).
	//
	// When characterizations already run on a cell-level worker pool
	// (internal/runner), experiments.Lab.CharOpts picks Workers: about
	// GOMAXPROCS / pool-workers for many-cell grids, so the two levels
	// compose without oversubscription, and GOMAXPROCS for sweeps of a
	// few unequal cells, so the cores an early-finishing cell frees go
	// to the others' shards.
	Workers int

	// RefKernel simulates on the reference heap kernel instead of the
	// default waveform kernel. The two are bit-identical (the sim
	// package's differential suite enforces it), so this only trades
	// speed for an independent code path — an audit tool, not a mode.
	// The reference kernel runs without the transition memo: the oracle
	// stays a pure, unaccelerated second opinion.
	RefKernel bool
}

// shardCount resolves the effective shard count for an n-cycle stream:
// the configured worker budget, capped so each shard keeps at least
// minShardCycles cycles (below that the per-shard settle + runner setup
// dominates any win).
const minShardCycles = 64

func (o CharacterizeOptions) shardCount(n int) int {
	k := o.Workers
	if k <= 0 {
		k = runtime.GOMAXPROCS(0)
	}
	if maxK := n / minShardCycles; k > maxK {
		k = maxK
	}
	if k < 1 {
		k = 1
	}
	return k
}

// Characterize runs back-annotated gate-level simulation of the unit at
// a corner over the stream — the paper's DTA phase. clocks lists the
// capture periods (ps) at which ground-truth errors are evaluated; it
// may be empty when only delays are needed (e.g. Fig. 3).
func Characterize(u *FUnit, corner cells.Corner, s *workload.Stream, clocks []float64) (*Trace, error) {
	return CharacterizeOptsContext(context.Background(), u, corner, s, clocks, CharacterizeOptions{})
}

// CharacterizeOpts is Characterize with explicit execution options.
func CharacterizeOpts(u *FUnit, corner cells.Corner, s *workload.Stream, clocks []float64, opts CharacterizeOptions) (*Trace, error) {
	return CharacterizeOptsContext(context.Background(), u, corner, s, clocks, opts)
}

// validateCharacterizeInputs rejects the inputs that would otherwise
// surface as indexing panics deep in the simulator (nil unit or stream)
// or as silent garbage (non-positive or NaN capture clocks, NaN float
// operands, which propagate NaN delays through every downstream model).
func validateCharacterizeInputs(u *FUnit, s *workload.Stream, clocks []float64) error {
	if u == nil {
		return fmt.Errorf("core: Characterize called with a nil functional unit")
	}
	if u.NL == nil {
		return fmt.Errorf("core: functional unit %v has no netlist", u.FU)
	}
	if s == nil {
		return fmt.Errorf("core: Characterize called with a nil operand stream")
	}
	if s.Len() < 2 {
		return fmt.Errorf("core: stream %q has %d pairs; need at least 2", s.Name, s.Len())
	}
	for k, c := range clocks {
		if math.IsNaN(c) {
			return fmt.Errorf("core: capture clock %d is NaN", k)
		}
		if c <= 0 {
			return fmt.Errorf("core: capture clock %d is %v ps; periods must be positive", k, c)
		}
	}
	if u.FU.IsFloat() {
		for i, p := range s.Pairs {
			fa := circuits.Float32FromBits(p.A)
			fb := circuits.Float32FromBits(p.B)
			if fa != fa || fb != fb {
				return fmt.Errorf("core: stream %q pair %d holds a NaN operand for float unit %v", s.Name, i, u.FU)
			}
		}
	}
	return nil
}

// CharacterizeOptsContext is the full-control characterization entry
// point: cooperative cancellation plus sharded parallel simulation. The
// simulation loop checks ctx every few hundred cycles, so a sweep
// runner's per-task deadline or a SIGINT aborts a multi-minute cell
// promptly instead of leaking it to completion in the background.
//
// Sharding argument: cycle i's dynamic delay depends only on the settled
// state at pair i and the transition to pair i+1. Because the netlist is
// acyclic, the settled state after any cycle equals the zero-delay
// evaluation of that cycle's input vector — it carries no event history.
// Splitting the stream into contiguous chunks and settling each worker's
// runner at its chunk's boundary pair therefore reproduces the exact
// per-cycle results of the sequential streaming run, in any shard count.
func CharacterizeOptsContext(ctx context.Context, u *FUnit, corner cells.Corner, s *workload.Stream, clocks []float64, opts CharacterizeOptions) (*Trace, error) {
	if err := validateCharacterizeInputs(u, s, clocks); err != nil {
		return nil, err
	}
	static, err := u.Static(corner)
	if err != nil {
		return nil, err
	}
	n := s.Len() - 1
	tr := &Trace{
		FU:           u.FU,
		Corner:       corner,
		Stream:       s,
		Delays:       make([]float64, n),
		ClockPeriods: append([]float64(nil), clocks...),
		Errors:       make([][]bool, len(clocks)),
		StaticDelay:  static.Delay,
	}
	for k := range tr.Errors {
		tr.Errors[k] = make([]bool, n)
	}

	shards, err := newShards(u, corner, n, opts)
	if err != nil {
		return nil, err
	}
	endSim := obs.Time("dta.simulate")
	err = runShards(shards, func(sh *shard) error { return sh.simulate(ctx, s, clocks, tr) })
	endSim()
	flushCascade(shards)
	if err != nil {
		return nil, err
	}
	endMerge := obs.Time("dta.merge")
	var ss sim.SliceStats
	for _, sh := range shards {
		tr.Events += sh.events
		tr.MaxDelay = max(tr.MaxDelay, sh.maxDelay)
		tr.MemoHits += sh.memo.Hits
		tr.MemoMisses += sh.memo.Misses
		tr.MemoEvictions += sh.memo.Evictions
		rs := sh.r.SliceStats()
		ss.Windows += rs.Windows
		ss.PrunedGateWindows += rs.PrunedGateWindows
		ss.Gates = rs.Gates
	}
	tr.SliceWindows, tr.SlicePrunedGateWindows = ss.Windows, ss.PrunedGateWindows
	mMemoHits.Add(tr.MemoHits)
	mMemoMisses.Add(tr.MemoMisses)
	mMemoEvictions.Add(tr.MemoEvictions)
	gSlicePrunedFrac.Set(ss.PrunedFraction())
	endMerge()
	mSimEvents.Add(int64(tr.Events))
	return tr, nil
}

// memoProbeCycles is how many cycles a shard runs with the transition
// memo before it decides whether to keep it: a shard whose first
// memoProbeCycles lookups all miss drops the memo for the rest of its
// cycles. Measured first-hit offsets (cycles into the shard): the
// dta-imaging streams hit by 12, the TestMemoHitRateImagingStreams
// fixtures by 216, Table III's application shards by 56 save one FP_ADD
// Gauss shard (first hit at 398, 3 hits in 700); random streams never
// hit, and on them the memo and its windows are pure cost.
const memoProbeCycles = 256

// shard is one contiguous chunk [lo, hi) of a characterization's cycles
// (or of the tail cycles Label re-simulates), simulated on its own
// runner, and what simulating it produced.
type shard struct {
	r        *sim.Runner
	lo, hi   int
	events   int
	maxDelay float64
	memo     sim.MemoStats // the memo's counters when the shard dropped it or ended
}

// flushCascade adds the shards' event-kernel cycles and events to the
// sim.cascade_* counters.
func flushCascade(shards []shard) {
	for _, sh := range shards {
		c, e := sh.r.CascadeStats()
		mCascadeCycles.Add(c)
		mCascadeEvents.Add(e)
	}
}

// newShards splits n cycles into opts.shardCount(n) contiguous shards
// and creates every runner up front (failing fast, in order): they all
// share the one cached/singleflighted STA result.
func newShards(u *FUnit, corner cells.Corner, n int, opts CharacterizeOptions) ([]shard, error) {
	newRunner := u.NewRunner
	if opts.RefKernel {
		newRunner = u.NewRefRunner
	}
	shards := make([]shard, opts.shardCount(n))
	for w := range shards {
		sh := &shards[w]
		sh.lo, sh.hi = w*n/len(shards), (w+1)*n/len(shards)
		var err error
		if sh.r, err = newRunner(corner); err != nil {
			return nil, err
		}
	}
	return shards, nil
}

// runShards runs fn on every shard, inline when there is only one, and
// returns the first shard's error in shard order.
func runShards(shards []shard, fn func(*shard) error) error {
	if len(shards) == 1 {
		return fn(&shards[0])
	}
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for w := range shards {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = fn(&shards[w])
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// simulate runs the shard's cycles, settling the circuit at pair lo
// first, and writes the per-cycle results into the shard's disjoint
// region of tr.
//
// On the fast kernel the shard turns on the runner's transition memo
// and declares upcoming input vectors to it in bitslice windows
// (sim.BeginWindow): the window's one bit-parallel zero-delay sweep
// turns each post-hit re-settle into lane extraction over the window's
// dirty nets. The memo's cap is the shard's cycle count: a shard
// stores at most one entry per cycle, so no larger cap would keep
// more, and the memo sizes its map by the cap, so a short shard does
// not pre-size a 4096-entry map. If no transition repeats within
// memoProbeCycles, the shard drops the memo and stops declaring
// windows. Results are bit-identical either way: a cycle's outcome is
// a pure function of its (prev, cur) transition (see
// sim.Runner.EnableMemo).
func (sh *shard) simulate(ctx context.Context, s *workload.Stream, clocks []float64, tr *Trace) error {
	r := sh.r
	memo := !r.Ref()
	var winVecs [][]bool
	if memo {
		r.EnableMemo(min(sh.hi-sh.lo, sim.DefaultMemoSize))
		back := make([]bool, sim.WindowMax*circuits.OperandBits)
		winVecs = make([][]bool, sim.WindowMax)
		for k := range winVecs {
			winVecs[k] = back[k*circuits.OperandBits : (k+1)*circuits.OperandBits]
		}
	}
	prev := make([]bool, circuits.OperandBits)
	cur := make([]bool, circuits.OperandBits)
	winEnd := sh.lo + 1 // first cycle runs un-windowed to key the memo
	circuits.EncodeOperandsInto(s.Pairs[sh.lo].A, s.Pairs[sh.lo].B, prev)
	for i := sh.lo; i < sh.hi; i++ {
		if (i-sh.lo)&255 == 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			default:
			}
		}
		if memo && i-sh.lo == memoProbeCycles {
			if ms := r.MemoStats(); ms.Hits == 0 {
				sh.memo = ms // the runner drops its counters with the memo
				r.DisableMemo()
				memo = false
			}
		}
		if memo && i >= winEnd {
			m := min(sh.hi-i, sim.WindowMax)
			for k := 0; k < m; k++ {
				circuits.EncodeOperandsInto(s.Pairs[i+1+k].A, s.Pairs[i+1+k].B, winVecs[k])
			}
			if err := r.BeginWindow(winVecs[:m]); err != nil {
				return err
			}
			winEnd = i + m
		}
		circuits.EncodeOperandsInto(s.Pairs[i+1].A, s.Pairs[i+1].B, cur)
		cy, err := r.Cycle(prev, cur)
		if err != nil {
			return err
		}
		mCyclesSimulated.Inc()
		tr.Delays[i] = cy.Delay
		sh.events += cy.Events
		sh.maxDelay = max(sh.maxDelay, cy.Delay)
		init := r.InitialOutputs()
		for k, tclk := range clocks {
			tr.Errors[k][i] = cy.ErrorAt(init, tclk)
		}
		prev = nil // streaming mode: the runner keeps its settled state
	}
	if ms := r.MemoStats(); ms.Enabled {
		sh.memo = ms
	}
	return nil
}

// Label returns a copy of tr, a characterization of its stream at its
// corner on u, with ground-truth errors at the capture periods clocks.
// It re-simulates only the tail: the cycles whose delay reaches the
// fastest clock.
//
// Tail lemma: a cycle whose delay is below tclk has applied every
// output toggle before the sample, so its sampled outputs are the
// settled ones and ErrorAt is false. A cycle at or above tclk can still
// sample correctly, when an output glitches back to its settled value
// before the edge, so the tail is simulated, never thresholded. Each
// tail cycle is settled at its own previous pair, on shards like a
// characterization's and without the memo; by the purity that makes
// sharding and the memo exact, its result is the streaming run's. A
// re-simulated delay that differs from tr.Delays[i] means tr is not
// this unit's trace at that corner, and is an error. Delays, Events,
// MaxDelay and the memo counters are tr's.
//
// Use it when the clocks come from the trace itself (the base clock is
// its MaxDelay, Table II's clock a delay percentile); when they are
// known before simulating, Characterize labels inline at no extra cost.
func Label(ctx context.Context, u *FUnit, tr *Trace, clocks []float64, opts CharacterizeOptions) (*Trace, error) {
	if tr == nil {
		return nil, fmt.Errorf("core: Label called with a nil trace")
	}
	if err := validateCharacterizeInputs(u, tr.Stream, clocks); err != nil {
		return nil, err
	}
	s := tr.Stream
	if tr.FU != u.FU || len(tr.Delays) != s.Len()-1 {
		return nil, fmt.Errorf("core: trace of %v over %d cycles cannot be labelled on %v over stream %q", tr.FU, len(tr.Delays), u.FU, s.Name)
	}
	out := *tr
	out.ClockPeriods = append([]float64(nil), clocks...)
	out.Errors = make([][]bool, len(clocks))
	for k := range out.Errors {
		out.Errors[k] = make([]bool, len(tr.Delays))
	}
	fastest := math.Inf(1)
	for _, c := range clocks {
		fastest = min(fastest, c)
	}
	var tail []int
	for i, d := range tr.Delays {
		if d >= fastest {
			tail = append(tail, i)
		}
	}
	if len(tail) == 0 {
		return &out, nil
	}
	shards, err := newShards(u, tr.Corner, len(tail), opts)
	if err != nil {
		return nil, err
	}
	defer obs.Time("dta.label")()
	err = runShards(shards, func(sh *shard) error {
		prev := make([]bool, circuits.OperandBits)
		cur := make([]bool, circuits.OperandBits)
		for j := sh.lo; j < sh.hi; j++ {
			if (j-sh.lo)&255 == 0 {
				select {
				case <-ctx.Done():
					return ctx.Err()
				default:
				}
			}
			i := tail[j]
			circuits.EncodeOperandsInto(s.Pairs[i].A, s.Pairs[i].B, prev)
			circuits.EncodeOperandsInto(s.Pairs[i+1].A, s.Pairs[i+1].B, cur)
			cy, err := sh.r.Cycle(prev, cur)
			if err != nil {
				return err
			}
			mCyclesSimulated.Inc()
			mSimEvents.Add(int64(cy.Events))
			if cy.Delay != tr.Delays[i] {
				return fmt.Errorf("core: cycle %d of stream %q re-simulates to %v ps on %v at %v, but the trace says %v ps",
					i, s.Name, cy.Delay, u.FU, tr.Corner, tr.Delays[i])
			}
			init := sh.r.InitialOutputs()
			for k, tclk := range clocks {
				out.Errors[k][i] = cy.ErrorAt(init, tclk)
			}
		}
		return nil
	})
	flushCascade(shards)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// CharacterizeCalibrated is CalibrateBaseClock followed by
// CharacterizeWithSpeedups on the same stream, in one simulation of it:
// it characterizes s at the corner without clocks, installs the trace's
// MaxDelay as the unit's base clock there, and labels the trace at
// base/(1+sp) for each speedup sp (Label). The trace is the one the two
// calls return.
func CharacterizeCalibrated(ctx context.Context, u *FUnit, corner cells.Corner, s *workload.Stream, speedups []float64, opts CharacterizeOptions) (*Trace, error) {
	tr, err := CharacterizeOptsContext(ctx, u, corner, s, nil, opts)
	if err != nil {
		return nil, err
	}
	if err := u.setBaseFrom(tr); err != nil {
		return nil, err
	}
	clocks, err := u.ClockPeriods(corner, speedups)
	if err != nil {
		return nil, err
	}
	return Label(ctx, u, tr, clocks, opts)
}

// CharacterizeWithSpeedups is Characterize with the capture periods
// derived from the unit's error-free base clock at the corner:
// period_s = base / (1 + s) for each fractional speedup s.
func CharacterizeWithSpeedups(u *FUnit, corner cells.Corner, s *workload.Stream, speedups []float64) (*Trace, error) {
	return CharacterizeWithSpeedupsOptsContext(context.Background(), u, corner, s, speedups, CharacterizeOptions{})
}

// CharacterizeWithSpeedupsOptsContext is CharacterizeWithSpeedups with
// cooperative cancellation and explicit execution options (see
// CharacterizeOptsContext and CharacterizeOptions).
func CharacterizeWithSpeedupsOptsContext(ctx context.Context, u *FUnit, corner cells.Corner, s *workload.Stream, speedups []float64, opts CharacterizeOptions) (*Trace, error) {
	if u == nil {
		return nil, fmt.Errorf("core: CharacterizeWithSpeedups called with a nil functional unit")
	}
	clocks, err := u.ClockPeriods(corner, speedups)
	if err != nil {
		return nil, err
	}
	return CharacterizeOptsContext(ctx, u, corner, s, clocks, opts)
}
