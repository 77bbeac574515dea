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
// and BenchmarkCharacterizeParallel gates the cost); events merge once
// per shard. The simulate/merge spans feed the stage.dta.* histograms.
var (
	mCyclesSimulated = obs.NewCounter("core.cycles_simulated")
	mSimEvents       = obs.NewCounter("core.sim_events")

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
	// transition-memo counters (all zero when the memo is off).
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
// MemoHits / (MemoHits + MemoMisses); 0 when the memo was off.
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
	// default calendar-queue kernel. The two are bit-identical (the sim
	// package's differential suite enforces it), so this only trades
	// speed for an independent code path — an audit tool, not a mode.
	// RefKernel also implies MemoOff: the oracle stays a pure,
	// unaccelerated second opinion.
	RefKernel bool

	// MemoOff disables the per-runner transition memo cache. The memo is
	// on by default because it is bit-identical to the uncached kernel
	// (a cycle's outcome is a pure function of the (prev, cur) input
	// transition for a fixed netlist and delay annotation — the same
	// purity that makes sharding exact, see above); turn it off for
	// streams with no transition repeats, where lookups are pure
	// overhead.
	MemoOff bool
	// MemoSize caps the memo at that many cached transitions (LRU
	// beyond it); <= 0 selects sim.DefaultMemoSize.
	MemoSize int
}

// memoOn reports whether characterization should enable the transition
// memo (and its bitslice window prepass) on its runners.
func (o CharacterizeOptions) memoOn() bool { return !o.MemoOff && !o.RefKernel }

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

	shards := opts.shardCount(n)
	// Create every runner up front (and sequentially fail fast): they all
	// share the one cached/singleflighted STA result.
	runners := make([]*sim.Runner, shards)
	newRunner := u.NewRunner
	if opts.RefKernel {
		newRunner = u.NewRefRunner
	}
	memo := opts.memoOn()
	for w := range runners {
		if runners[w], err = newRunner(corner); err != nil {
			return nil, err
		}
		if memo {
			runners[w].EnableMemo(opts.MemoSize)
		}
	}

	// obs.Span (not obs.Time): when a dist worker runs this cell under
	// a request-scoped trace, dta.simulate/dta.merge appear as child
	// spans of the cell's trace; untraced runs pay a nil no-op.
	simCtx, endSim := obs.Span(ctx, "dta.simulate")
	events := make([]int, shards)
	maxes := make([]float64, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for w := 0; w < shards; w++ {
		lo, hi := w*n/shards, (w+1)*n/shards
		if shards == 1 {
			// Sequential path: run inline, no goroutine.
			errs[0] = characterizeShard(simCtx, runners[0], s, clocks, tr, lo, hi, &events[0], &maxes[0], memo)
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			errs[w] = characterizeShard(simCtx, runners[w], s, clocks, tr, lo, hi, &events[w], &maxes[w], memo)
		}(w, lo, hi)
	}
	wg.Wait()
	endSim()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	_, endMerge := obs.Span(ctx, "dta.merge")
	for w := 0; w < shards; w++ {
		tr.Events += events[w]
		if maxes[w] > tr.MaxDelay {
			tr.MaxDelay = maxes[w]
		}
	}
	if memo {
		var ss sim.SliceStats
		for _, r := range runners {
			ms := r.MemoStats()
			tr.MemoHits += ms.Hits
			tr.MemoMisses += ms.Misses
			tr.MemoEvictions += ms.Evictions
			rs := r.SliceStats()
			tr.SliceWindows += rs.Windows
			tr.SlicePrunedGateWindows += rs.PrunedGateWindows
			ss.Gates = rs.Gates
		}
		ss.Windows = tr.SliceWindows
		ss.PrunedGateWindows = tr.SlicePrunedGateWindows
		mMemoHits.Add(tr.MemoHits)
		mMemoMisses.Add(tr.MemoMisses)
		mMemoEvictions.Add(tr.MemoEvictions)
		gSlicePrunedFrac.Set(ss.PrunedFraction())
	}
	endMerge()
	mSimEvents.Add(int64(tr.Events))
	return tr, nil
}

// characterizeShard simulates cycles [lo, hi) of the stream on its own
// runner, settling the circuit at pair lo first, and writes the
// per-cycle results into the shard's disjoint region of tr.
//
// With the memo on, the shard also declares upcoming input vectors to
// the runner in bitslice windows (sim.BeginWindow): the window's one
// bit-parallel zero-delay sweep turns each post-hit re-settle into lane
// extraction over the window's dirty nets.
func characterizeShard(ctx context.Context, r *sim.Runner, s *workload.Stream, clocks []float64, tr *Trace, lo, hi int, events *int, maxDelay *float64, memo bool) error {
	prev := make([]bool, circuits.OperandBits)
	cur := make([]bool, circuits.OperandBits)
	var winVecs [][]bool
	if memo {
		back := make([]bool, sim.WindowMax*circuits.OperandBits)
		winVecs = make([][]bool, sim.WindowMax)
		for k := range winVecs {
			winVecs[k] = back[k*circuits.OperandBits : (k+1)*circuits.OperandBits]
		}
	}
	winEnd := lo + 1 // first cycle runs un-windowed to key the memo
	circuits.EncodeOperandsInto(s.Pairs[lo].A, s.Pairs[lo].B, prev)
	for i := lo; i < hi; i++ {
		if (i-lo)&255 == 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			default:
			}
		}
		if memo && i >= winEnd {
			m := hi - i
			if m > sim.WindowMax {
				m = sim.WindowMax
			}
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
		*events += cy.Events
		if cy.Delay > *maxDelay {
			*maxDelay = cy.Delay
		}
		init := r.InitialOutputs()
		for k, tclk := range clocks {
			tr.Errors[k][i] = cy.ErrorAt(init, tclk)
		}
		prev = nil // streaming mode: the runner keeps its settled state
	}
	return nil
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
