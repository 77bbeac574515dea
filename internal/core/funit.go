package core

import (
	"context"
	"fmt"
	"sync"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/netlist"
	"tevot/internal/obs"
	"tevot/internal/place"
	"tevot/internal/sim"
	"tevot/internal/sta"
	"tevot/internal/workload"
)

// STA cache observability: a paper-scale sweep asks for the same
// corner's timing thousands of times; hit/miss counters make a cold (or
// epoch-invalidated) cache visible at /metrics instead of showing up
// only as mysteriously slow cells. Singleflight waiters count as hits:
// they pay a wait, not an analysis.
var (
	mSTAHits   = obs.NewCounter("sta.cache_hits")
	mSTAMisses = obs.NewCounter("sta.cache_misses")
)

// FUnit bundles a functional unit's gate-level netlist with cached
// per-corner static timing results — the "synthesized design plus its
// corner SDFs" of the paper's flow.
type FUnit struct {
	FU   circuits.FU
	NL   *netlist.Netlist
	Opts sta.Options

	mu       sync.Mutex
	cache    map[cells.Corner]*sta.Result
	base     map[cells.Corner]float64 // measured error-free clock overrides
	inflight map[cells.Corner]*staCall
	epoch    uint64 // bumped by EnableLayout; stale analyses are not cached
	staRuns  int    // analyses actually executed (observability for tests)
}

// staCall is one in-flight STA analysis shared by every concurrent
// Static caller at the same corner (singleflight).
type staCall struct {
	done chan struct{}
	res  *sta.Result
	err  error
}

// NewFUnit builds the netlist for fu with default STA options.
func NewFUnit(fu circuits.FU) (*FUnit, error) {
	end := obs.Time("netlist.build")
	nl, err := fu.Build()
	end()
	if err != nil {
		return nil, err
	}
	return newFUnit(fu, nl), nil
}

// newFUnit wraps a built netlist. It builds the netlist's derived views
// (topological order and CSR) before the unit can be shared: those
// caches are not synchronized, so concurrent shards would otherwise
// race to build them in their first NewRunner.
func newFUnit(fu circuits.FU, nl *netlist.Netlist) *FUnit {
	nl.CSR()
	return &FUnit{
		FU:    fu,
		NL:    nl,
		Opts:  sta.DefaultOptions(),
		cache: make(map[cells.Corner]*sta.Result),
		base:  make(map[cells.Corner]float64),
	}
}

// Static returns (and caches) the STA result at a corner. Concurrent
// callers at the same uncached corner share a single analysis: the first
// runs sta.Analyze, the rest block on its completion (singleflight), so
// a sharded characterization never duplicates the STA work.
func (u *FUnit) Static(c cells.Corner) (*sta.Result, error) {
	u.mu.Lock()
	if res, ok := u.cache[c]; ok {
		u.mu.Unlock()
		mSTAHits.Inc()
		return res, nil
	}
	if call, ok := u.inflight[c]; ok {
		u.mu.Unlock()
		mSTAHits.Inc()
		<-call.done
		return call.res, call.err
	}
	call := &staCall{done: make(chan struct{})}
	if u.inflight == nil {
		u.inflight = make(map[cells.Corner]*staCall)
	}
	u.inflight[c] = call
	epoch := u.epoch
	opts := u.Opts
	u.staRuns++
	u.mu.Unlock()

	mSTAMisses.Inc()
	end := obs.Time("sta.analyze")
	call.res, call.err = sta.Analyze(u.NL, c, opts)
	end()

	u.mu.Lock()
	if u.inflight[c] == call {
		delete(u.inflight, c)
	}
	// Don't cache results computed against options that EnableLayout has
	// since replaced; the waiters still get this (pre-layout) result, as
	// they asked before the switch.
	if call.err == nil && epoch == u.epoch {
		u.cache[c] = call.res
	}
	u.mu.Unlock()
	close(call.done)
	return call.res, call.err
}

// NewRunner creates an event-driven simulator annotated for the corner.
// Runners are not concurrency-safe; create one per goroutine.
func (u *FUnit) NewRunner(c cells.Corner) (*sim.Runner, error) {
	res, err := u.Static(c)
	if err != nil {
		return nil, err
	}
	return sim.NewRunner(u.NL, res.GateDelay)
}

// NewRefRunner is NewRunner on the reference heap kernel — the
// differential oracle. Characterizations run with it are bit-identical
// to the fast kernel's, just slower; use it to audit a suspect result.
func (u *FUnit) NewRefRunner(c cells.Corner) (*sim.Runner, error) {
	res, err := u.Static(c)
	if err != nil {
		return nil, err
	}
	return sim.NewRefRunner(u.NL, res.GateDelay)
}

// BaseClock returns the fastest error-free clock period (ps) at a
// corner. If a measured base was installed with SetBaseClock (the max
// dynamic delay observed during characterization — the paper's "fastest
// error-free clock frequency" for the unit), that is used; otherwise the
// STA critical-path delay is the conservative fallback. Speeding the
// clock beyond this is what creates the timing errors TEVoT predicts.
func (u *FUnit) BaseClock(c cells.Corner) (float64, error) {
	u.mu.Lock()
	base, ok := u.base[c]
	u.mu.Unlock()
	if ok {
		return base, nil
	}
	res, err := u.Static(c)
	if err != nil {
		return 0, err
	}
	return res.Delay, nil
}

// SetBaseClock installs the measured error-free clock period at a
// corner. Characterization workflows call this with the max dynamic
// delay observed on the unit's rated (training) workload, so that the
// grid's clock speedups actually produce the error tails the paper
// studies (the STA bound is rarely sensitized and would leave most
// corners error-free).
func (u *FUnit) SetBaseClock(c cells.Corner, ps float64) error {
	if ps <= 0 {
		return fmt.Errorf("core: non-positive base clock %v", ps)
	}
	u.mu.Lock()
	u.base[c] = ps
	u.mu.Unlock()
	return nil
}

// CalibrateBaseClock measures the unit's max dynamic delay over a stream
// at a corner and installs it as the base clock, returning it: the
// "fastest error-free clock" of the paper's experimental setup. To also
// label the stream at clocks derived from that base, use
// CharacterizeCalibrated, which simulates the stream once for both.
func (u *FUnit) CalibrateBaseClock(c cells.Corner, s *workload.Stream) (float64, error) {
	return u.CalibrateBaseClockOptsContext(context.Background(), c, s, CharacterizeOptions{})
}

// CalibrateBaseClockOptsContext is CalibrateBaseClock with cooperative
// cancellation and explicit characterization options (see
// CharacterizeOptsContext and CharacterizeOptions).
func (u *FUnit) CalibrateBaseClockOptsContext(ctx context.Context, c cells.Corner, s *workload.Stream, opts CharacterizeOptions) (float64, error) {
	tr, err := CharacterizeOptsContext(ctx, u, c, s, nil, opts)
	if err != nil {
		return 0, err
	}
	if err := u.setBaseFrom(tr); err != nil {
		return 0, err
	}
	return tr.MaxDelay, nil
}

// setBaseFrom installs a characterization's MaxDelay as the base clock
// at its corner.
func (u *FUnit) setBaseFrom(tr *Trace) error {
	if tr.MaxDelay <= 0 {
		return fmt.Errorf("core: stream %q produced no output activity at %v", tr.Stream.Name, tr.Corner)
	}
	return u.SetBaseClock(tr.Corner, tr.MaxDelay)
}

// ClockPeriods returns the periods (ps) for the given fractional
// speedups at a corner: base / (1 + s).
func (u *FUnit) ClockPeriods(c cells.Corner, speedups []float64) ([]float64, error) {
	base, err := u.BaseClock(c)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(speedups))
	for i, s := range speedups {
		if s <= 0 || s >= 1 {
			return nil, fmt.Errorf("core: speedup %v outside (0,1)", s)
		}
		out[i] = base / (1 + s)
	}
	return out, nil
}

// EnableLayout places the netlist and switches the unit's timing to the
// post-layout model: every gate's delay gains its placed interconnect
// component. Cached per-corner timing is discarded (it was pre-layout),
// as are measured base clocks.
func (u *FUnit) EnableLayout() error {
	pl, err := place.Place(u.NL)
	if err != nil {
		return err
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	u.Opts.Placement = pl
	u.Opts.Wire = place.DefaultWire()
	u.cache = make(map[cells.Corner]*sta.Result)
	u.base = make(map[cells.Corner]float64)
	// In-flight pre-layout analyses keep serving their waiters but must
	// not land in the fresh cache: the epoch bump marks them stale, and
	// dropping the map entries lets new callers start post-layout runs.
	u.epoch++
	u.inflight = nil
	return nil
}

// NewFUnitFromNetlist wraps an externally built netlist (e.g. an
// alternative adder topology for ablations) in a FUnit.
func NewFUnitFromNetlist(fu circuits.FU, nl *netlist.Netlist) (*FUnit, error) {
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	return newFUnit(fu, nl), nil
}

// NewFUnits builds all four functional units.
func NewFUnits() (map[circuits.FU]*FUnit, error) {
	units := make(map[circuits.FU]*FUnit, len(circuits.AllFUs))
	for _, fu := range circuits.AllFUs {
		u, err := NewFUnit(fu)
		if err != nil {
			return nil, err
		}
		units[fu] = u
	}
	return units, nil
}
