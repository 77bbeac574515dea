package experiments

import (
	"context"
	"fmt"
	"sort"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/core"
	"tevot/internal/obs"
	"tevot/internal/runner"
)

// This file routes the paper's sweeps through internal/runner, the
// fault-tolerant executor: every (FU, dataset, corner) cell runs on a
// bounded worker pool with panic isolation, per-task deadlines, retries
// for transient failures, and JSONL checkpointing — so a paper-scale
// run (100 corners × 4 FUs, hours of simulation) survives single-cell
// failures and process kills. Results are reassembled in canonical
// sweep order regardless of completion order, so a resumed run is
// indistinguishable from an uninterrupted one.

// cornerKey renders a corner into a stable checkpoint-key fragment.
func cornerKey(c cells.Corner) string {
	return fmt.Sprintf("v%.4f_t%g", c.V, c.T)
}

// Fig3CellKey names one (FU, dataset, corner) cell of the Fig. 3 grid.
// It is the cell's identity everywhere: runner checkpoints, the
// distributed coordinator's lease table and journal, and the merged
// result JSONL — one stable key space across all execution modes.
func Fig3CellKey(fu circuits.FU, dataset string, c cells.Corner) string {
	return fmt.Sprintf("fig3/%s/%s/%s", fu, dataset, cornerKey(c))
}

// Fig3Cell characterizes one cell of the Fig. 3 grid. It is a
// deterministic function of (lab scale, fu, dataset, corner): the
// operand stream is regenerated from the lab's seed, so any process
// holding the same Scale reproduces the identical DelayRow — the
// property that makes distributed execution (internal/dist) safe to
// retry anywhere.
func Fig3Cell(ctx context.Context, lab *Lab, fu circuits.FU, dataset string, corner cells.Corner, opts core.CharacterizeOptions) (DelayRow, error) {
	u, ok := lab.Units[fu]
	if !ok {
		return DelayRow{}, fmt.Errorf("experiments: lab has no unit for %v", fu)
	}
	s, err := lab.Stream(fu, dataset, false)
	if err != nil {
		return DelayRow{}, err
	}
	tr, err := core.CharacterizeOptsContext(ctx, u, corner, s, nil, opts)
	if err != nil {
		return DelayRow{}, err
	}
	return DelayRow{
		FU: fu, Corner: corner, Dataset: dataset,
		MeanDelay: tr.MeanDelay(), MaxDelay: tr.MaxDelay,
		Static: tr.StaticDelay,
	}, nil
}

// fig3SweepName fingerprints the sweep's identity and every scale input
// that changes a cell's value, so a checkpoint cannot be resumed against
// a differently shaped run.
func fig3SweepName(lab *Lab, corners []cells.Corner) string {
	return fmt.Sprintf("fig3 fus=%d datasets=%d corners=%d cycles=%d %s seed=%d",
		len(lab.Scale.fus()), len(Datasets), len(corners), lab.Scale.TestCycles, appScale(lab.Scale), lab.Scale.Seed)
}

// appScale names the scale inputs of the application datasets' streams.
func appScale(s Scale) string {
	return fmt.Sprintf("images=%dx%d appcap=%d", s.Images, s.ImageSize, s.AppStreamCap)
}

// Fig3Run is Fig3 on the fault-tolerant runner: each (FU, dataset,
// corner) cell is an independent task. Failed cells are recorded in the
// Report and omitted from the rows; the sweep itself keeps going. The
// returned error is non-nil only for infrastructure problems or context
// cancellation (partial rows and the Report are still returned).
func Fig3Run(ctx context.Context, lab *Lab, corners []cells.Corner, cfg runner.Config) ([]DelayRow, *runner.Report, error) {
	ctx, end := obs.Span(ctx, "experiments.fig3")
	defer end()
	if len(corners) == 0 {
		corners = core.Fig3Corners()
	}
	if cfg.Name == "" {
		cfg.Name = fig3SweepName(lab, corners)
	}
	opts := lab.CharOpts(cfg.Workers)
	var tasks []runner.Task[DelayRow]
	for _, fu := range lab.Scale.fus() {
		for _, dataset := range Datasets {
			for _, corner := range corners {
				fu, dataset, corner := fu, dataset, corner
				tasks = append(tasks, runner.Task[DelayRow]{
					Key: Fig3CellKey(fu, dataset, corner),
					Run: func(ctx context.Context) (DelayRow, error) {
						return Fig3Cell(ctx, lab, fu, dataset, corner, opts)
					},
				})
			}
		}
	}
	results, rep, err := runner.Run(ctx, cfg, tasks)
	// Reassemble in canonical sweep order so output is identical no
	// matter how workers interleaved or which cells were resumed.
	rows := make([]DelayRow, 0, len(results))
	for _, fu := range lab.Scale.fus() {
		for _, dataset := range Datasets {
			for _, corner := range corners {
				if r, ok := results[Fig3CellKey(fu, dataset, corner)]; ok {
					rows = append(rows, r)
				}
			}
		}
	}
	return rows, rep, err
}

func table3SweepName(lab *Lab) string {
	return fmt.Sprintf("table3 fus=%d corners=%d speedups=%d train=%d test=%d %s seed=%d",
		len(lab.Scale.fus()), len(lab.Scale.Corners), len(lab.Scale.Speedups),
		lab.Scale.TrainCycles, lab.Scale.TestCycles, appScale(lab.Scale), lab.Scale.Seed)
}

// Table3Run is Table3 on the fault-tolerant runner. The cell here is
// one functional unit — the smallest independently useful chunk, since
// a model must see every corner's training traces before it can be
// evaluated. A panic or failure while training one FU no longer aborts
// the other three.
//
// Every characterization gets the whole machine's shards (CharOpts(1)),
// not its share of it. The per-FU lanes are few and unequal (at the
// benchmark's reduced scale the FP_ADD lane runs about three times as
// long as INT_ADD's), so a lane that finishes early would otherwise
// leave its cores idle; with whole-machine shards the scheduler hands
// them to the lanes still simulating. Sharding is bit-identical, so the
// cells do not change.
func Table3Run(ctx context.Context, lab *Lab, cfg runner.Config) ([]Table3Cell, *runner.Report, error) {
	ctx, end := obs.Span(ctx, "experiments.table3")
	defer end()
	if cfg.Name == "" {
		cfg.Name = table3SweepName(lab)
	}
	opts := lab.CharOpts(1)
	var tasks []runner.Task[[]Table3Cell]
	for _, fu := range lab.Scale.fus() {
		fu := fu
		tasks = append(tasks, runner.Task[[]Table3Cell]{
			Key: "table3/" + fu.String(),
			Run: func(ctx context.Context) ([]Table3Cell, error) {
				return table3ForFU(ctx, lab, fu, opts)
			},
		})
	}
	results, rep, err := runner.Run(ctx, cfg, tasks)
	var cells3 []Table3Cell
	for _, fu := range lab.Scale.fus() {
		cells3 = append(cells3, results["table3/"+fu.String()]...)
	}
	return cells3, rep, err
}

// table3ForFU is the per-FU offline + evaluation pipeline of Table III
// (see Table3 for the paper mapping), made cancellation-aware.
func table3ForFU(ctx context.Context, lab *Lab, fu circuits.FU, opts core.CharacterizeOptions) ([]Table3Cell, error) {
	u := lab.Units[fu]

	// Offline phase: calibrate base clocks and characterize training
	// data at every corner.
	var trainTraces []*core.Trace
	for _, corner := range lab.Scale.Corners {
		randTrain, err := lab.Stream(fu, DatasetRandom, true)
		if err != nil {
			return nil, err
		}
		if _, err := u.CalibrateBaseClockOptsContext(ctx, corner, randTrain, opts); err != nil {
			return nil, err
		}
		trRand, err := core.CharacterizeWithSpeedupsOptsContext(ctx, u, corner, randTrain, lab.Scale.Speedups, opts)
		if err != nil {
			return nil, err
		}
		trainTraces = append(trainTraces, trRand)
		for _, ds := range []string{DatasetSobel, DatasetGauss} {
			appTrain, err := lab.Stream(fu, ds, true)
			if err != nil {
				return nil, err
			}
			trApp, err := core.CharacterizeWithSpeedupsOptsContext(ctx, u, corner, appTrain, lab.Scale.Speedups, opts)
			if err != nil {
				return nil, err
			}
			trainTraces = append(trainTraces, trApp)
		}
	}

	tevot, err := core.Train(fu, trainTraces, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	nhCfg := core.DefaultConfig()
	nhCfg.History = false
	tevotNH, err := core.Train(fu, trainTraces, nhCfg)
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

	// Evaluation phase: held-out data per dataset.
	var cells3 []Table3Cell
	for _, dataset := range Datasets {
		testStream, err := lab.Stream(fu, dataset, false)
		if err != nil {
			return nil, err
		}
		var testTraces []*core.Trace
		for _, corner := range lab.Scale.Corners {
			tr, err := core.CharacterizeWithSpeedupsOptsContext(ctx, u, corner, testStream, lab.Scale.Speedups, opts)
			if err != nil {
				return nil, err
			}
			testTraces = append(testTraces, tr)
		}
		for _, m := range models {
			_, acc, err := core.EvaluateAll(m, testTraces)
			if err != nil {
				return nil, err
			}
			cells3 = append(cells3, Table3Cell{FU: fu, Dataset: dataset, Model: m.Name(), Accuracy: acc})
		}
	}
	return cells3, nil
}

// Table2Run is Table2 on the fault-tolerant runner: one cell (one FU at
// one corner), gaining panic isolation, deadline, retry, and resume
// semantics for the learning-method comparison. The lone cell gets the
// whole machine's shards.
func Table2Run(ctx context.Context, lab *Lab, cfg runner.Config) ([]core.MethodResult, *runner.Report, error) {
	ctx, end := obs.Span(ctx, "experiments.table2")
	defer end()
	fu := lab.Scale.fus()[0]
	for _, f := range lab.Scale.fus() {
		if f == circuits.FPAdd32 {
			fu = f
			break
		}
	}
	if cfg.Name == "" {
		cfg.Name = fmt.Sprintf("table2 fu=%s cycles=%d seed=%d", fu, lab.Scale.TrainCycles, lab.Scale.Seed)
	}
	key := "table2/" + fu.String()
	opts := lab.CharOpts(1)
	tasks := []runner.Task[[]core.MethodResult]{{
		Key: key,
		Run: func(ctx context.Context) ([]core.MethodResult, error) {
			return table2ForFU(ctx, lab, fu, opts)
		},
	}}
	results, rep, err := runner.Run(ctx, cfg, tasks)
	return results[key], rep, err
}

// table2ForFU is Table2's body (see Table2 for the clock-choice
// rationale), made cancellation-aware.
func table2ForFU(ctx context.Context, lab *Lab, fu circuits.FU, opts core.CharacterizeOptions) ([]core.MethodResult, error) {
	u := lab.Units[fu]
	corner := lab.Scale.Corners[0]
	train, err := lab.Stream(fu, DatasetRandom, true)
	if err != nil {
		return nil, err
	}
	test, err := lab.Stream(fu, DatasetRandom, false)
	if err != nil {
		return nil, err
	}
	// The capture clock balances the two classes: the 60th percentile of
	// the training delays (see Table2's comment for why).
	probe, err := core.CharacterizeOptsContext(ctx, u, corner, train, nil, opts)
	if err != nil {
		return nil, err
	}
	sorted := append([]float64(nil), probe.Delays...)
	sort.Float64s(sorted)
	clock := sorted[len(sorted)*60/100]
	trTrain, err := core.CharacterizeOptsContext(ctx, u, corner, train, []float64{clock}, opts)
	if err != nil {
		return nil, err
	}
	trTest, err := core.CharacterizeOptsContext(ctx, u, corner, test, []float64{clock}, opts)
	if err != nil {
		return nil, err
	}
	return core.CompareMethods([]*core.Trace{trTrain}, []*core.Trace{trTest}, 0, lab.Scale.Seed)
}
