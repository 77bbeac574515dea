package experiments

import (
	"context"
	"fmt"
	"slices"
	"time"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/core"
	"tevot/internal/imaging"
	"tevot/internal/inject"
	"tevot/internal/obs"
	"tevot/internal/workload"
)

// TrainQualityModels trains the four Table III models (trainModels) for
// each of the application's FUs. Training also installs each FU's base
// clock at every corner, from which the study's capture clocks derive.
//
// The TER-based entry keeps its paper semantics: core.TERBased ignores
// the test stream's content and draws at the rate measured offline on
// random training data, so its derived per-FU TER is that offline rate.
func TrainQualityModels(lab *Lab, app inject.App) (map[circuits.FU][]core.ErrorPredictor, error) {
	models := make(map[circuits.FU][]core.ErrorPredictor)
	for _, fu := range app.FUs() {
		ms, err := trainModels(context.Background(), lab, fu, lab.CharOpts(1)) // serial top level: each FU gets the machine
		if err != nil {
			return nil, err
		}
		models[fu] = ms
	}
	return models, nil
}

// QualityPoint is one (corner, speedup, image) observation of Table IV:
// each model's PSNR and acceptability verdict next to the
// simulation-derived ground truth.
type QualityPoint struct {
	Corner  cells.Corner
	Speedup float64
	Image   int

	TruePSNR       float64
	TrueAcceptable bool

	PSNR       map[string]float64
	Acceptable map[string]bool
}

// Table4Row is one row of Table IV: one application's points, each
// model's estimation accuracy (Eq. 5: the fraction of points whose
// verdict matches the ground truth's), and the models it scored
// (TrainQualityModels), which Fig4 renders the Sobel row's from.
type Table4Row struct {
	App      inject.App
	Accuracy map[string]float64
	Points   []QualityPoint
	Models   map[circuits.FU][]core.ErrorPredictor
}

// Table4 runs the paper's §V.D case study for both applications, in
// inject.Apps order (Sobel, then Gauss).
func Table4(lab *Lab) ([]Table4Row, error) {
	defer obs.Time("experiments.table4")()
	var rows []Table4Row
	for _, app := range inject.Apps {
		models, err := TrainQualityModels(lab, app)
		if err != nil {
			return nil, err
		}
		row, err := table4Row(lab, app, models)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// table4Row scores models on app: at every corner and speedup it
// injects the ground-truth and each model's per-FU TERs (qualityTERs)
// into the application's run over every image of the Lab, and compares
// each model's PSNR-acceptability verdict with the ground truth's.
func table4Row(lab *Lab, app inject.App, models map[circuits.FU][]core.ErrorPredictor) (Table4Row, error) {
	if len(lab.Images) == 0 {
		return Table4Row{}, fmt.Errorf("experiments: quality study needs images")
	}
	row := Table4Row{App: app, Accuracy: make(map[string]float64), Models: models}
	matches := make(map[string]int)
	var names []string
	for _, corner := range lab.Scale.Corners {
		ns, truth, pred, err := qualityTERs(lab, app, corner, lab.Scale.Speedups, lab.appStreams[appDataset(app)], models)
		if err != nil {
			return Table4Row{}, err
		}
		names = ns
		for k, sp := range lab.Scale.Speedups {
			for i, img := range lab.Images {
				seed := lab.Scale.Seed ^ int64(i)<<16 ^ int64(len(row.Points))
				psnr, _, err := app.QualityRun(img, truth[k], seed)
				if err != nil {
					return Table4Row{}, err
				}
				pt := QualityPoint{
					Corner: corner, Speedup: sp, Image: i,
					TruePSNR: psnr, TrueAcceptable: psnr >= imaging.AcceptableThresholdDB,
					PSNR: make(map[string]float64), Acceptable: make(map[string]bool),
				}
				for _, name := range names {
					p, _, err := app.QualityRun(img, pred[k][name], seed+1)
					if err != nil {
						return Table4Row{}, err
					}
					ok := p >= imaging.AcceptableThresholdDB
					pt.PSNR[name], pt.Acceptable[name] = p, ok
					if ok == pt.TrueAcceptable {
						matches[name]++
					}
				}
				row.Points = append(row.Points, pt)
			}
		}
	}
	if len(row.Points) == 0 {
		return Table4Row{}, fmt.Errorf("experiments: quality study of %v evaluated no points", app)
	}
	for _, name := range names {
		row.Accuracy[name] = float64(matches[name]) / float64(len(row.Points))
	}
	return row, nil
}

// qualityTERs derives the per-FU timing-error rates the quality study
// injects into app at one corner, one set per speedup k: truth[k] from
// gate-level simulation of each FU's stream, and pred[k][name] from the
// named model's verdicts on the same stream (core.EvaluateAll's
// TERPred, so TEVoT predicts each stream once for every clock). Every
// FU of app must have the same models, in the order names lists.
func qualityTERs(lab *Lab, app inject.App, corner cells.Corner, speedups []float64,
	streams map[circuits.FU]*workload.Stream, models map[circuits.FU][]core.ErrorPredictor,
) (names []string, truth []inject.TERs, pred []map[string]inject.TERs, err error) {
	for _, m := range models[app.FUs()[0]] {
		names = append(names, m.Name())
	}
	truth = make([]inject.TERs, len(speedups))
	pred = make([]map[string]inject.TERs, len(speedups))
	for k := range speedups {
		truth[k] = inject.TERs{}
		pred[k] = make(map[string]inject.TERs)
		for _, name := range names {
			pred[k][name] = inject.TERs{}
		}
	}
	for _, fu := range app.FUs() {
		u, ms := lab.Units[fu], models[fu]
		if u == nil {
			return nil, nil, nil, fmt.Errorf("experiments: lab has no unit for %v", fu)
		}
		if len(ms) == 0 || len(ms) != len(names) {
			return nil, nil, nil, fmt.Errorf("experiments: %v has %d models, want %d: %v", fu, len(ms), len(names), names)
		}
		clocks, err := u.ClockPeriods(corner, speedups)
		if err != nil {
			return nil, nil, nil, err
		}
		tr, err := core.CharacterizeOpts(u, corner, streams[fu], clocks, lab.CharOpts(1))
		if err != nil {
			return nil, nil, nil, err
		}
		for k := range speedups {
			truth[k][fu] = tr.TER(k)
		}
		for j, m := range ms {
			if m.Name() != names[j] {
				return nil, nil, nil, fmt.Errorf("experiments: %v's model %d is %s, want %s", fu, j, m.Name(), names[j])
			}
			evals, _, err := core.EvaluateAll(m, []*core.Trace{tr})
			if err != nil {
				return nil, nil, nil, err
			}
			for k, ev := range evals {
				pred[k][m.Name()][fu] = ev.TERPred
			}
		}
	}
	return names, truth, pred, nil
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
func Fig4(lab *Lab, models map[circuits.FU][]core.ErrorPredictor) ([]Fig4Output, error) {
	defer obs.Time("experiments.fig4")()
	app := inject.SobelApp
	corner := lab.Scale.Corners[0]
	sp := lab.Scale.Speedups[len(lab.Scale.Speedups)-1]
	img := lab.Images[0]

	streams, err := recordApp(app, lab.Images[:1], lab.Scale.AppStreamCap)
	if err != nil {
		return nil, err
	}
	names, truth, pred, err := qualityTERs(lab, app, corner, []float64{sp}, streams, models)
	if err != nil {
		return nil, err
	}
	gtPSNR, gtImg, err := app.QualityRun(img, truth[0], lab.Scale.Seed)
	if err != nil {
		return nil, err
	}
	outputs := []Fig4Output{{Model: "Ground truth", PSNR: gtPSNR, Image: gtImg}}
	for _, name := range names {
		p, out, err := app.QualityRun(img, pred[0][name], lab.Scale.Seed)
		if err != nil {
			return nil, err
		}
		outputs = append(outputs, Fig4Output{Model: name, PSNR: p, Image: out})
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

// speedupWalks is how many times Speedup times the inference walk. One
// walk of the test stream takes well under a millisecond, so a single
// timer read is mostly host noise; the median of these walks is not.
const speedupWalks = 21

// SpeedupBench is one §V.C comparison, trained and ready to time: a
// forest fitted on the FU's training stream at the lab's first corner,
// and the test stream it is timed on. Training happens once, in
// NewSpeedupBench; each Run times only the simulation and the walks.
type SpeedupBench struct {
	fu     circuits.FU
	u      *core.FUnit
	corner cells.Corner
	test   *workload.Stream
	model  *core.Model
}

// NewSpeedupBench characterizes fu's random training stream at the
// lab's first corner and fits the forest that Run times.
func NewSpeedupBench(lab *Lab, fu circuits.FU) (*SpeedupBench, error) {
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
	return &SpeedupBench{fu: fu, u: u, corner: corner, test: test, model: model}, nil
}

// Run measures per-cycle gate-level simulation time against TEVoT
// inference time on the test stream: one simulation against the median
// of speedupWalks inference walks. The simulation runs on one shard, so
// the ratio compares one core with one core, independent of the host's
// core count, as long as the forest walks the stream inline (fewer than
// 1024 rows).
func (b *SpeedupBench) Run() (*SpeedupResult, error) {
	t0 := time.Now()
	if _, err := core.CharacterizeOpts(b.u, b.corner, b.test, nil, core.CharacterizeOptions{Workers: 1}); err != nil {
		return nil, err
	}
	simT := time.Since(t0)

	walks := make([]time.Duration, speedupWalks)
	for i := range walks {
		t0 = time.Now()
		if _, err := b.model.PredictDelays(b.corner, b.test); err != nil {
			return nil, err
		}
		walks[i] = time.Since(t0)
	}
	slices.Sort(walks)
	predT := walks[len(walks)/2]

	n := b.test.Len() - 1
	res := &SpeedupResult{
		FU:           b.fu,
		SimPerCycle:  simT / time.Duration(n),
		PredPerCycle: predT / time.Duration(n),
	}
	if predT > 0 {
		res.Speedup = float64(simT) / float64(predT)
	}
	return res, nil
}

// Speedup trains a SpeedupBench for fu and runs it once.
func Speedup(lab *Lab, fu circuits.FU) (*SpeedupResult, error) {
	b, err := NewSpeedupBench(lab, fu)
	if err != nil {
		return nil, err
	}
	return b.Run()
}
