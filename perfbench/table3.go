package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/core"
	"tevot/internal/experiments"
	"tevot/internal/features"
	"tevot/internal/ml"
	"tevot/internal/runner"
	"tevot/internal/workload"
)

// table3: one reduced-scale experiments.Table3Run on INT_ADD and FP_ADD
// (3 corners × 3 speedups, 2000 training and 800 test cycles, random,
// Sobel and Gauss data). One op is one Table3Run on a fresh Lab.
func table3Scale(v int, tiny bool) experiments.Scale {
	s := experiments.Small()
	s.FUs = []circuits.FU{circuits.IntAdd32, circuits.FPAdd32}
	s.Seed = 1 + int64(v)
	if tiny {
		s.TrainCycles, s.TestCycles = 150, 60
		s.Corners = s.Corners[:1]
		s.AppStreamCap = 400
	}
	return s
}

func table3Key(fu circuits.FU, dataset, model string) string {
	return fmt.Sprintf("%v/%s/%s", fu, dataset, model)
}

// table3Once runs one untraced Table3Run and returns its accuracies.
func table3Once(lab *experiments.Lab) (map[string]float64, error) {
	cells3, rep, err := experiments.Table3Run(context.Background(), lab, runner.Config{})
	if err == nil {
		err = rep.Err()
	}
	if err != nil {
		return nil, err
	}
	acc := make(map[string]float64, len(cells3))
	for _, c := range cells3 {
		acc[table3Key(c.FU, c.Dataset, c.Model)] = c.Accuracy
	}
	return acc, nil
}

// sameAccuracies reports whether got equals want exactly, cell by cell.
// With no recorded values (tiny inputs) it only asks for a full table.
func sameAccuracies(got, want map[string]float64) bool {
	if want == nil {
		return len(got) > 0
	}
	if len(got) != len(want) {
		return false
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			return false
		}
	}
	return true
}

func runTable3(p Params) (*Result, error) {
	v := variant(p.Seed)
	res := newResult(p.Trace)
	scale := table3Scale(v, p.Tiny)
	// Set-up builds the Lab and warms the pipeline's code paths and heap
	// with one smoke-sized Table3Run, paid before timing.
	var labS []float64
	_, setupS, err := medianSetup(3, func() (*experiments.Lab, error) {
		t0 := time.Now()
		lab, err := experiments.NewLab(scale)
		if err != nil {
			return nil, err
		}
		labS = append(labS, time.Since(t0).Seconds())
		warm, err := experiments.NewLab(table3Scale(v, true))
		if err != nil {
			return nil, err
		}
		acc, err := table3Once(warm)
		res.check(err == nil && sameAccuracies(acc, nil))
		return lab, err
	})
	if err != nil {
		return nil, err
	}
	want := recordedTable3(v, p.Tiny)

	var opMs, allocMB []float64
	var first map[string]float64
	untracedOp := func() error {
		lab, err := experiments.NewLab(scale)
		if err != nil {
			return err
		}
		runtime.GC()
		a0 := allocBytes()
		s0 := time.Now()
		acc, err := table3Once(lab)
		if err != nil {
			return err
		}
		opMs = append(opMs, msSince(s0))
		allocMB = append(allocMB, float64(allocBytes()-a0)/1e6)
		if first == nil {
			first = acc
		}
		res.check(sameAccuracies(acc, want) && sameAccuracies(acc, first))
		return nil
	}
	if !p.Trace {
		for t0 := time.Now(); len(opMs) == 0 || time.Since(t0).Seconds() < p.Seconds; {
			if err := untracedOp(); err != nil {
				return nil, err
			}
		}
		printSamples("table3_ms", opMs)
		res.set("setup_s", setupS)
		res.set("op_ms", workTime(opMs))
		res.set("tail_ms", workTime(opMs))
		res.set("alloc_mb", median(allocMB))
		return res, nil
	}

	res.set("experiments.lab_s", median(labS))
	led := newLedger(p, map[string]string{
		"sim":      "op_ms on table3, dta-imaging",
		"ml.fit":   "op_ms on table3",
		"features": "op_ms on table3 (small), serve-bulk",
		"ml.walk":  "op_ms on table3 (small), serve-bulk",
		"core":     "op_ms on table3 (eval, baselines)",
		"idle":     "op_ms on table3 (FU task imbalance)",
	})
	var tot t3lane
	ops := 0
	// Untraced and traced runs alternate, so host-speed drift during the
	// run reaches both sides of the ledger's comparison alike.
	for t0 := time.Now(); ops == 0 || time.Since(t0).Seconds() < p.Seconds; ops++ {
		if err := untracedOp(); err != nil {
			return nil, err
		}
		runtime.GC()
		acc, err := tracedTable3(scale, led, &tot)
		if err != nil {
			return nil, err
		}
		res.check(sameAccuracies(acc, want) && sameAccuracies(acc, first))
	}
	printSamples("table3_ms", opMs)
	n := float64(ops)
	res.set("sim.busy_s", tot.sim/n)
	res.set("sim.cycles", float64(tot.cycles)/n)
	res.set("sim.events", float64(tot.events)/n)
	res.set("sim.memo_evictions", float64(tot.evictions)/n)
	if tot.cycles > 0 {
		res.set("sim.ns_per_cycle", 1e9*tot.charSim/float64(tot.cycles))
	}
	if tot.events > 0 {
		res.set("sim.ns_per_event", 1e9*tot.charSim/float64(tot.events))
	}
	if tot.hits+tot.misses > 0 {
		res.set("sim.memo_hit_ratio", float64(tot.hits)/float64(tot.hits+tot.misses))
	}
	res.set("ml.fit_s", tot.fit/n)
	res.set("ml.fit_rows", float64(tot.fitRows)/n)
	res.set("core.eval_s", tot.eval/n)
	if tot.featRows > 0 {
		res.set("features.ns_per_row", 1e9*tot.feat/float64(tot.featRows))
	}
	if tot.predRows > 0 {
		res.set("ml.walk_ns_per_row", 1e9*tot.walk/float64(tot.predRows))
	}
	// §V.C: gate-level simulation vs inference on the FP_ADD streams.
	if tot.fpPredRows > 0 && tot.fpCycles > 0 {
		predNs := 1e9 * tot.fpPredSec / float64(tot.fpPredRows)
		simNs := 1e9 * tot.fpSimSec / float64(tot.fpCycles)
		res.set("ml.predict_ns_per_row", predNs)
		res.set("paper.sim_vs_inference_x", simNs/predNs)
		fmt.Printf("§V.C FP_ADD: gate-level sim %.0f ns/cycle vs inference %.0f ns/row: %.0fx\n", simNs, predNs, simNs/predNs)
	}
	busy := 0.0
	for _, s := range led.rows {
		busy += s
	}
	res.set("experiments.core_utilization", busy/(led.wall*float64(runtime.GOMAXPROCS(0))))
	led.report(res, median(opMs))
	fitShare := led.rows["ml.fit"] / busy
	claim("ml.fit >= 30% of table3 busy time", fitShare, fitShare >= 0.3)
	return res, nil
}

// t3lane accumulates one FU pipeline's traced costs (seconds and counts).
type t3lane struct {
	sim, charSim, feat, fit, walk, eval     float64
	cycles, events, hits, misses, evictions int64
	fitRows, featRows, predRows             int64
	fpCycles, fpPredRows                    int64
	fpSimSec, fpPredSec                     float64
}

func (t *t3lane) merge(o *t3lane) {
	t.sim += o.sim
	t.charSim += o.charSim
	t.feat += o.feat
	t.fit += o.fit
	t.walk += o.walk
	t.eval += o.eval
	t.cycles += o.cycles
	t.events += o.events
	t.hits += o.hits
	t.misses += o.misses
	t.evictions += o.evictions
	t.fitRows += o.fitRows
	t.featRows += o.featRows
	t.predRows += o.predRows
	t.fpCycles += o.fpCycles
	t.fpPredRows += o.fpPredRows
	t.fpSimSec += o.fpSimSec
	t.fpPredSec += o.fpPredSec
}

// tracedTable3 is experiments.Table3Run on a fresh Lab, recomposed from
// the public calls it makes so each layer can be timed: one lane per FU
// (as the runner pool runs them), sim via core characterization,
// core.Train split into features.VectorInto/VectorNHInto plus
// ml.RandomForest.Fit, the baselines, and core.EvaluateAll over a
// predictor that times feature fill and the forest walk. It returns the
// accuracies, which must equal Table3Run's exactly.
func tracedTable3(scale experiments.Scale, led *Ledger, tot *t3lane) (map[string]float64, error) {
	lab, err := experiments.NewLab(scale)
	if err != nil {
		return nil, err
	}
	opts := lab.CharOpts(0)
	fus := scale.FUs
	lanes := runtime.GOMAXPROCS(0)
	if lanes > len(fus) {
		lanes = len(fus)
	}
	sem := make(chan struct{}, lanes)
	accs := make([]map[string]float64, len(fus))
	tallies := make([]t3lane, len(fus))
	spans := make([]float64, len(fus))
	fails := make([]error, len(fus))
	t0 := time.Now()
	var wg sync.WaitGroup
	for i, fu := range fus {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, fu circuits.FU) {
			defer wg.Done()
			defer func() { <-sem }()
			l0 := time.Now()
			accs[i], fails[i] = tracedTable3FU(lab, fu, opts, &tallies[i])
			spans[i] = time.Since(l0).Seconds()
		}(i, fu)
	}
	wg.Wait()
	wall := time.Since(t0)
	acc := make(map[string]float64)
	for i := range fus {
		if fails[i] != nil {
			return nil, fails[i]
		}
		for k, a := range accs[i] {
			acc[k] = a
		}
		tl := &tallies[i]
		led.add("sim", tl.sim)
		led.add("features", tl.feat)
		led.add("ml.fit", tl.fit)
		led.add("ml.walk", tl.walk)
		led.add("core", spans[i]-(tl.sim+tl.feat+tl.fit+tl.walk))
		tot.merge(tl)
	}
	led.span(wall, lanes)
	led.endOp()
	return acc, nil
}

func tracedTable3FU(lab *experiments.Lab, fu circuits.FU, opts core.CharacterizeOptions, tl *t3lane) (map[string]float64, error) {
	ctx := context.Background()
	u := lab.Units[fu]
	speedups := lab.Scale.Speedups
	characterize := func(corner cells.Corner, s *workload.Stream) (*core.Trace, error) {
		t0 := time.Now()
		tr, err := core.CharacterizeWithSpeedupsOptsContext(ctx, u, corner, s, speedups, opts)
		if err != nil {
			return nil, err
		}
		sec := time.Since(t0).Seconds()
		tl.sim += sec
		tl.charSim += sec
		tl.cycles += int64(tr.Cycles())
		tl.events += int64(tr.Events)
		tl.hits += tr.MemoHits
		tl.misses += tr.MemoMisses
		tl.evictions += tr.MemoEvictions
		return tr, nil
	}

	var trainTraces []*core.Trace
	for _, corner := range lab.Scale.Corners {
		randTrain, err := lab.Stream(fu, experiments.DatasetRandom, true)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if _, err := u.CalibrateBaseClockOptsContext(ctx, corner, randTrain, opts); err != nil {
			return nil, err
		}
		tl.sim += time.Since(t0).Seconds()
		tr, err := characterize(corner, randTrain)
		if err != nil {
			return nil, err
		}
		trainTraces = append(trainTraces, tr)
		for _, ds := range []string{experiments.DatasetSobel, experiments.DatasetGauss} {
			appTrain, err := lab.Stream(fu, ds, true)
			if err != nil {
				return nil, err
			}
			tr, err := characterize(corner, appTrain)
			if err != nil {
				return nil, err
			}
			trainTraces = append(trainTraces, tr)
		}
	}

	tevot, err := tracedTrain(trainTraces, true, tl)
	if err != nil {
		return nil, err
	}
	tevotNH, err := tracedTrain(trainTraces, false, tl)
	if err != nil {
		return nil, err
	}
	delayBased, err := core.NewDelayBased(fu, trainTraces)
	if err != nil {
		return nil, err
	}
	terBased, err := core.NewTERBased(fu, trainTraces, lab.Scale.Seed)
	if err != nil {
		return nil, err
	}
	models := []core.ErrorPredictor{tevot, delayBased, terBased, tevotNH}

	acc := make(map[string]float64)
	for _, dataset := range experiments.Datasets {
		testStream, err := lab.Stream(fu, dataset, false)
		if err != nil {
			return nil, err
		}
		var testTraces []*core.Trace
		for _, corner := range lab.Scale.Corners {
			c0, s0 := tl.cycles, tl.charSim
			tr, err := characterize(corner, testStream)
			if err != nil {
				return nil, err
			}
			if fu == circuits.FPAdd32 {
				tl.fpCycles += tl.cycles - c0
				tl.fpSimSec += tl.charSim - s0
			}
			testTraces = append(testTraces, tr)
		}
		for _, m := range models {
			inner := tl.feat + tl.walk
			r0 := tl.predRows
			t0 := time.Now()
			_, a, err := core.EvaluateAll(m, testTraces)
			if err != nil {
				return nil, err
			}
			inner = tl.feat + tl.walk - inner
			tl.eval += time.Since(t0).Seconds() - inner
			if fp, ok := m.(*tracedForest); ok && fp.history && fu == circuits.FPAdd32 {
				tl.fpPredRows += tl.predRows - r0
				tl.fpPredSec += inner
			}
			acc[table3Key(fu, dataset, m.Name())] = a
		}
	}
	return acc, nil
}

// tracedTrain is core.Train split at its layer boundary: feature rows
// from features.VectorInto (or VectorNHInto), then ml.RandomForest.Fit
// with core.DefaultConfig's forest.
func tracedTrain(traces []*core.Trace, history bool, tl *t3lane) (*tracedForest, error) {
	dim := features.Dim
	if !history {
		dim = features.DimNH
	}
	t0 := time.Now()
	total := 0
	for _, tr := range traces {
		total += tr.Cycles()
	}
	X := rows(total, dim)
	y := make([]float64, 0, total)
	for _, tr := range traces {
		pairs := tr.Stream.Pairs
		for i := 0; i < tr.Cycles(); i++ {
			row := X[len(y)]
			if history {
				features.VectorInto(row, tr.Corner, pairs[i+1], pairs[i])
			} else {
				features.VectorNHInto(row, tr.Corner, pairs[i+1])
			}
			y = append(y, tr.Delays[i])
		}
	}
	tl.feat += time.Since(t0).Seconds()
	tl.featRows += int64(len(X))

	cfg := core.DefaultConfig().Forest
	cfg.Tree.Mode = ml.Regression
	f := ml.NewRandomForest(cfg)
	t0 = time.Now()
	if err := f.Fit(X, y); err != nil {
		return nil, err
	}
	tl.fit += time.Since(t0).Seconds()
	tl.fitRows += int64(len(X))
	return &tracedForest{forest: f, history: history, dim: dim, tl: tl}, nil
}

// tracedForest is core.Model's ErrorPredictor over a forest trained by
// tracedTrain: feature fill then one batch walk, erroneous when the
// predicted delay exceeds the clock (core.Model.PredictErrors).
type tracedForest struct {
	forest  *ml.RandomForest
	history bool
	dim     int
	tl      *t3lane
}

func (f *tracedForest) Name() string {
	if f.history {
		return "TEVoT"
	}
	return "TEVoT-NH"
}

func (f *tracedForest) Errors(corner cells.Corner, s *workload.Stream, tclk float64) ([]bool, error) {
	n := s.Len() - 1
	t0 := time.Now()
	X := rows(n, f.dim)
	for i := range X {
		if f.history {
			features.VectorInto(X[i], corner, s.Pairs[i+1], s.Pairs[i])
		} else {
			features.VectorNHInto(X[i], corner, s.Pairs[i+1])
		}
	}
	t1 := time.Now()
	delays := f.forest.PredictBatch(X)
	f.tl.walk += time.Since(t1).Seconds()
	f.tl.feat += t1.Sub(t0).Seconds()
	f.tl.featRows += int64(n)
	f.tl.predRows += int64(n)
	out := make([]bool, n)
	for i, d := range delays {
		out[i] = d > tclk
	}
	return out, nil
}

// rows carves n feature rows of width dim from one backing array, as
// core does for training and prediction.
func rows(n, dim int) [][]float64 {
	backing := make([]float64, n*dim)
	X := make([][]float64, n)
	for i := range X {
		X[i] = backing[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return X
}
