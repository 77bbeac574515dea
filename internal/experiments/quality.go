package experiments

import (
	"context"
	"fmt"
	"time"

	"tevot/internal/circuits"
	"tevot/internal/core"
	"tevot/internal/imaging"
	"tevot/internal/inject"
	"tevot/internal/obs"
)

// TrainQualityModels trains TEVoT and TEVoT-NH and builds the two
// baselines for the application's FUs, from random and application
// training data at the scale's corners. It returns the four
// QualityModels of Table IV, in the paper's column order. Training
// also installs each FU's base clock at every corner
// (core.CharacterizeCalibrated), from which the study's capture clocks
// derive.
//
// The TER-based entry keeps its paper semantics through the
// ErrorPredictor adapter: core.TERBased ignores the test stream's
// content and draws at the rate measured offline on random training
// data, so its derived per-FU TER is that offline rate.
func TrainQualityModels(lab *Lab, app inject.App) ([]core.QualityModel, error) {
	tevot := make(map[circuits.FU]core.ErrorPredictor)
	tevotNH := make(map[circuits.FU]core.ErrorPredictor)
	delay := make(map[circuits.FU]core.ErrorPredictor)
	ter := make(map[circuits.FU]core.ErrorPredictor)
	for _, fu := range app.FUs() {
		u := lab.Units[fu]
		opts := lab.CharOpts(1) // serial top level: each cell gets the machine
		var traces []*core.Trace
		for _, corner := range lab.Scale.Corners {
			train, err := lab.Stream(fu, DatasetRandom, true)
			if err != nil {
				return nil, err
			}
			tr, err := core.CharacterizeCalibrated(context.Background(), u, corner, train, lab.Scale.Speedups, opts)
			if err != nil {
				return nil, err
			}
			traces = append(traces, tr)
			// The paper trains on 200K random vectors PLUS 5 % of the
			// application images; without the application slice the
			// forest cannot extrapolate to operand distributions it has
			// never seen (two's-complement accumulators, narrow pixel
			// ranges), and the quality estimates collapse.
			for _, ds := range []string{DatasetSobel, DatasetGauss} {
				appTrain, err := lab.Stream(fu, ds, true)
				if err != nil {
					return nil, err
				}
				trApp, err := core.CharacterizeWithSpeedupsOptsContext(context.Background(), u, corner, appTrain, lab.Scale.Speedups, opts)
				if err != nil {
					return nil, err
				}
				traces = append(traces, trApp)
			}
		}
		m, err := core.Train(fu, traces, core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		nhCfg := core.DefaultConfig()
		nhCfg.History = false
		nh, err := core.Train(fu, traces, nhCfg)
		if err != nil {
			return nil, err
		}
		db, err := core.NewDelayBased(fu, traces)
		if err != nil {
			return nil, err
		}
		tb, err := core.NewTERBased(fu, traces, lab.Scale.Seed)
		if err != nil {
			return nil, err
		}
		tevot[fu], tevotNH[fu], delay[fu], ter[fu] = m, nh, db, tb
	}
	return []core.QualityModel{
		core.QualityFromPredictors("TEVoT", tevot),
		core.QualityFromPredictors("Delay-based", delay),
		core.QualityFromPredictors("TER-based", ter),
		core.QualityFromPredictors("TEVoT-NH", tevotNH),
	}, nil
}

// Table4Row is one row of Table IV: each model's application-quality
// estimation accuracy for one application, and the models it scored
// (TrainQualityModels), which Fig4 renders the Sobel row's from.
type Table4Row struct {
	App      inject.App
	Accuracy map[string]float64
	Models   []core.QualityModel
}

// Table4 runs the quality study for both applications, in inject.Apps
// order (Sobel, then Gauss).
func Table4(lab *Lab) ([]Table4Row, *core.QualityResult, *core.QualityResult, error) {
	defer obs.Time("experiments.table4")()
	var rows []Table4Row
	var results []*core.QualityResult
	for _, app := range inject.Apps {
		models, err := TrainQualityModels(lab, app)
		if err != nil {
			return nil, nil, nil, err
		}
		res, err := core.QualityStudy(app, lab.Units, models, lab.Images,
			lab.Scale.Corners, lab.Scale.Speedups,
			core.QualityOptions{Seed: lab.Scale.Seed, StreamCap: lab.Scale.AppStreamCap})
		if err != nil {
			return nil, nil, nil, err
		}
		rows = append(rows, Table4Row{App: app, Accuracy: res.EstimationAccuracy, Models: models})
		results = append(results, res)
	}
	return rows, results[0], results[1], nil
}

// Fig4Output is one model's injected Sobel output and its PSNR, the
// paper's Fig. 4 panel.
type Fig4Output struct {
	Model string
	PSNR  float64
	Image *imaging.Image
}

// Fig4 renders the paper's Fig. 4: the Sobel output of one image under
// ground-truth error injection and under each model's derived TERs, at
// one aggressive corner. models are the Sobel units' models from
// TrainQualityModels on this lab (Table4 hands them back in its Sobel
// row); their training installed the base clocks Fig4's clock derives
// from.
func Fig4(lab *Lab, models []core.QualityModel) ([]Fig4Output, error) {
	defer obs.Time("experiments.fig4")()
	app := inject.SobelApp
	corner := lab.Scale.Corners[0]
	sp := lab.Scale.Speedups[len(lab.Scale.Speedups)-1]
	img := lab.Images[0]

	rec := inject.NewRecording(lab.Scale.AppStreamCap)
	app.Run(img, rec)

	trueTERs := inject.TERs{}
	modelTERs := map[string]inject.TERs{}
	for _, m := range models {
		modelTERs[m.Name()] = inject.TERs{}
	}
	for _, fu := range app.FUs() {
		u := lab.Units[fu]
		s, err := rec.Stream(fu)
		if err != nil {
			return nil, err
		}
		clocks, err := u.ClockPeriods(corner, []float64{sp})
		if err != nil {
			return nil, err
		}
		tr, err := core.Characterize(u, corner, s, clocks)
		if err != nil {
			return nil, err
		}
		trueTERs[fu] = tr.TER(0)
		for _, m := range models {
			ter, err := m.TERFor(fu, corner, s, clocks[0])
			if err != nil {
				return nil, err
			}
			modelTERs[m.Name()][fu] = ter
		}
	}

	outputs := make([]Fig4Output, 0, len(models)+1)
	gtPSNR, gtImg, err := app.QualityRun(img, trueTERs, lab.Scale.Seed)
	if err != nil {
		return nil, err
	}
	outputs = append(outputs, Fig4Output{Model: "Ground truth", PSNR: gtPSNR, Image: gtImg})
	for _, m := range models {
		p, out, err := app.QualityRun(img, modelTERs[m.Name()], lab.Scale.Seed)
		if err != nil {
			return nil, err
		}
		outputs = append(outputs, Fig4Output{Model: m.Name(), PSNR: p, Image: out})
	}
	return outputs, nil
}

// SpeedupResult quantifies the paper's §V.C claim that TEVoT inference
// is ~100× faster than gate-level simulation.
type SpeedupResult struct {
	FU           circuits.FU
	SimPerCycle  time.Duration
	PredPerCycle time.Duration
	Speedup      float64
}

// Speedup measures per-cycle gate-level simulation time against TEVoT
// inference time on the same stream.
func Speedup(lab *Lab, fu circuits.FU) (*SpeedupResult, error) {
	u, ok := lab.Units[fu]
	if !ok {
		return nil, fmt.Errorf("experiments: no unit for %v", fu)
	}
	corner := lab.Scale.Corners[0]
	train, err := lab.Stream(fu, DatasetRandom, true)
	if err != nil {
		return nil, err
	}
	test, err := lab.Stream(fu, DatasetRandom, false)
	if err != nil {
		return nil, err
	}
	tr, err := core.Characterize(u, corner, train, nil)
	if err != nil {
		return nil, err
	}
	model, err := core.Train(fu, []*core.Trace{tr}, core.DefaultConfig())
	if err != nil {
		return nil, err
	}

	t0 := time.Now()
	if _, err := core.Characterize(u, corner, test, nil); err != nil {
		return nil, err
	}
	simT := time.Since(t0)

	t0 = time.Now()
	if _, err := model.PredictDelays(corner, test); err != nil {
		return nil, err
	}
	predT := time.Since(t0)

	n := test.Len() - 1
	res := &SpeedupResult{
		FU:           fu,
		SimPerCycle:  simT / time.Duration(n),
		PredPerCycle: predT / time.Duration(n),
	}
	if predT > 0 {
		res.Speedup = float64(simT) / float64(predT)
	}
	return res, nil
}
