package core

import (
	"fmt"
	"math"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/imaging"
	"tevot/internal/inject"
	"tevot/internal/workload"
)

// QualityModel is an error model participating in the application
// quality study: it supplies a per-FU timing-error rate at a condition
// and clock, which the injector then applies to the application's FU
// operations.
type QualityModel interface {
	Name() string
	// TERFor returns the model's timing-error rate for a functional
	// unit's profiled application stream at a corner and clock period.
	TERFor(fu circuits.FU, corner cells.Corner, s *workload.Stream, tclk float64) (float64, error)
}

// predictorQuality adapts any ErrorPredictor to QualityModel.
type predictorQuality struct {
	name string
	pred func(fu circuits.FU) ErrorPredictor
}

// QualityFromPredictors builds a QualityModel from one ErrorPredictor
// per functional unit (e.g. one trained TEVoT model per FU).
func QualityFromPredictors(name string, byFU map[circuits.FU]ErrorPredictor) QualityModel {
	return &predictorQuality{name: name, pred: func(fu circuits.FU) ErrorPredictor { return byFU[fu] }}
}

func (q *predictorQuality) Name() string { return q.name }

func (q *predictorQuality) TERFor(fu circuits.FU, corner cells.Corner, s *workload.Stream, tclk float64) (float64, error) {
	p := q.pred(fu)
	if p == nil {
		return 0, fmt.Errorf("core: quality model %q has no predictor for %v", q.name, fu)
	}
	errs, err := p.Errors(corner, s, tclk)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range errs {
		if e {
			n++
		}
	}
	return float64(n) / float64(len(errs)), nil
}

// QualityPoint is one (application, corner, speedup, image) observation:
// each model's PSNR and acceptability verdict next to the
// simulation-derived ground truth.
type QualityPoint struct {
	App     inject.App
	Corner  cells.Corner
	Speedup float64
	Image   int

	TruePSNR       float64
	TrueAcceptable bool

	PSNR       map[string]float64
	Acceptable map[string]bool
}

// QualityResult aggregates a quality study.
type QualityResult struct {
	Points []QualityPoint
	// EstimationAccuracy per model name: Eq. 5, the fraction of points
	// whose acceptability verdict matches the ground truth.
	EstimationAccuracy map[string]float64
}

// QualityOptions tunes a quality study run.
type QualityOptions struct {
	// Seed drives error injection.
	Seed int64
	// StreamCap bounds the profiled operand pairs per FU fed to
	// characterization (0 = unlimited). Large image sets otherwise
	// produce very long gate-level simulations.
	StreamCap int
}

// QualityStudy runs the paper's §V.D case study for one application:
// profile the app's per-FU operand streams, characterize the ground
// truth at each corner (once per FU, at every speedup's clock), derive
// each model's per-FU TER, inject errors at those rates, and compare
// PSNR-acceptability verdicts against the simulation-derived ground
// truth.
func QualityStudy(
	app inject.App,
	units map[circuits.FU]*FUnit,
	models []QualityModel,
	images []*imaging.Image,
	corners []cells.Corner,
	speedups []float64,
	opts QualityOptions,
) (*QualityResult, error) {
	if len(images) == 0 {
		return nil, fmt.Errorf("core: quality study needs images")
	}
	// Profile the application's operand streams once (the paper profiles
	// the OpenCL kernels through Multi2Sim).
	rec := inject.NewRecording(opts.StreamCap)
	for _, img := range images {
		app.Run(img, rec)
	}
	streams := make(map[circuits.FU]*workload.Stream)
	for _, fu := range app.FUs() {
		s, err := rec.Stream(fu)
		if err != nil {
			return nil, fmt.Errorf("core: profiling %v for %v: %w", fu, app, err)
		}
		streams[fu] = s
	}

	res := &QualityResult{EstimationAccuracy: make(map[string]float64)}
	matches := make(map[string]int)
	total := 0

	for _, corner := range corners {
		// Ground truth from gate-level simulation of each profiled
		// stream: one characterization per FU labels every speedup's
		// clock at once.
		truth := make(map[circuits.FU]*Trace)
		for _, fu := range app.FUs() {
			u := units[fu]
			if u == nil {
				return nil, fmt.Errorf("core: no FUnit for %v", fu)
			}
			clocks, err := u.ClockPeriods(corner, speedups)
			if err != nil {
				return nil, err
			}
			if truth[fu], err = Characterize(u, corner, streams[fu], clocks); err != nil {
				return nil, err
			}
		}
		for k, sp := range speedups {
			trueTERs := inject.TERs{}
			modelTERs := make(map[string]inject.TERs)
			for _, m := range models {
				modelTERs[m.Name()] = inject.TERs{}
			}
			for _, fu := range app.FUs() {
				tr := truth[fu]
				trueTERs[fu] = tr.TER(k)
				for _, m := range models {
					ter, err := m.TERFor(fu, corner, streams[fu], tr.ClockPeriods[k])
					if err != nil {
						return nil, err
					}
					modelTERs[m.Name()][fu] = ter
				}
			}

			for imgIdx, img := range images {
				pt := QualityPoint{
					App: app, Corner: corner, Speedup: sp, Image: imgIdx,
					PSNR:       make(map[string]float64),
					Acceptable: make(map[string]bool),
				}
				ptSeed := opts.Seed ^ int64(imgIdx)<<16 ^ int64(total)
				psnr, _, err := app.QualityRun(img, trueTERs, ptSeed)
				if err != nil {
					return nil, err
				}
				pt.TruePSNR = psnr
				pt.TrueAcceptable = psnr >= imaging.AcceptableThresholdDB
				for _, m := range models {
					p, _, err := app.QualityRun(img, modelTERs[m.Name()], ptSeed+1)
					if err != nil {
						return nil, err
					}
					pt.PSNR[m.Name()] = p
					ok := p >= imaging.AcceptableThresholdDB
					pt.Acceptable[m.Name()] = ok
					if ok == pt.TrueAcceptable {
						matches[m.Name()]++
					}
				}
				res.Points = append(res.Points, pt)
				total++
			}
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("core: quality study evaluated no points")
	}
	for _, m := range models {
		res.EstimationAccuracy[m.Name()] = float64(matches[m.Name()]) / float64(total)
	}
	return res, nil
}

// MeanPSNRGap reports the mean absolute PSNR difference between a
// model's injected outputs and the ground-truth injected outputs,
// ignoring points where either PSNR is infinite (identical images).
func (r *QualityResult) MeanPSNRGap(model string) float64 {
	var sum float64
	n := 0
	for _, pt := range r.Points {
		p, ok := pt.PSNR[model]
		if !ok || math.IsInf(p, 0) || math.IsInf(pt.TruePSNR, 0) {
			continue
		}
		sum += math.Abs(p - pt.TruePSNR)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
