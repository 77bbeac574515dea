// Package experiments orchestrates the paper's evaluation: one entry
// point per table and figure, shared by the command-line tools and the
// benchmark harness. Every experiment is parameterized by a Scale so the
// same code runs as a quick smoke (CI-sized) or as a paper-sized sweep.
package experiments

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/core"
	"tevot/internal/imaging"
	"tevot/internal/inject"
	"tevot/internal/runner"
	"tevot/internal/workload"
)

// Scale sizes an experiment run.
type Scale struct {
	// TrainCycles and TestCycles size the random characterization
	// streams per corner (the paper uses 200 K each).
	TrainCycles, TestCycles int
	// Corners are the operating conditions swept (the paper's Table I
	// grid has 100).
	Corners []cells.Corner
	// Speedups are the clock speedups over the error-free base clock.
	Speedups []float64
	// Images is the number of synthetic images; ImageSize their side.
	Images, ImageSize int
	// AppStreamCap bounds profiled operand pairs per FU.
	AppStreamCap int
	// Seed drives all pseudo-randomness.
	Seed int64
	// FUs restricts the functional units (nil = all four).
	FUs []circuits.FU
}

// CharOpts is the one rule that sizes simulation shards: with
// cellWorkers cells characterizing concurrently, each cell gets
// GOMAXPROCS/cellWorkers shards, at least 1. cellWorkers <= 0 is the
// runner's default pool of GOMAXPROCS cells, so 1 shard. Sharding never
// changes results, only speed; an operator who wants fewer cores sets
// GOMAXPROCS.
//
// Many-cell grids (Fig. 3) pass their pool size, so cells × shards
// fill the machine without oversubscribing it. Sweeps with a few
// unequal cells (Tables II and III, model saving, a dist worker's one
// cell at a time) pass 1: each cell may then use every core, and the
// cores a finished cell frees go to the cells still simulating instead
// of idling.
func (*Lab) CharOpts(cellWorkers int) core.CharacterizeOptions {
	if cellWorkers <= 0 {
		return core.CharacterizeOptions{Workers: 1}
	}
	return core.CharacterizeOptions{Workers: max(1, runtime.GOMAXPROCS(0)/cellWorkers)}
}

// Small returns a laptop-scale configuration that exercises every code
// path of every experiment in seconds-to-minutes.
func Small() Scale {
	return Scale{
		TrainCycles: 2000,
		TestCycles:  800,
		Corners: []cells.Corner{
			{V: 0.81, T: 0}, {V: 0.90, T: 50}, {V: 1.00, T: 100},
		},
		Speedups:     []float64{0.05, 0.10, 0.15},
		Images:       3,
		ImageSize:    24,
		AppStreamCap: 1500,
		Seed:         1,
	}
}

// Paper returns the paper's full experimental scale: the Table I grid
// (100 corners × 3 speedups), 200 K training and test cycles. Running it
// takes hours; use the cmd tools' flags to select it deliberately.
func Paper() Scale {
	s := Small()
	s.TrainCycles = 200000
	s.TestCycles = 200000
	s.Corners = core.TableIGrid().Corners()
	s.Images = 10
	s.ImageSize = 64
	s.AppStreamCap = 20000
	return s
}

func (s Scale) fus() []circuits.FU {
	if len(s.FUs) > 0 {
		return s.FUs
	}
	return circuits.AllFUs
}

// Dataset labels, matching the paper's three datasets.
const (
	DatasetRandom = "random_data"
	DatasetSobel  = "sobel_data"
	DatasetGauss  = "gauss_data"
)

// Datasets lists the paper's three dataset labels.
var Datasets = []string{DatasetRandom, DatasetSobel, DatasetGauss}

// Lab bundles the built functional units and the profiled application
// streams so experiments can share the expensive setup.
type Lab struct {
	Scale  Scale
	Units  map[circuits.FU]*core.FUnit
	Images []*imaging.Image

	appStreams map[string]map[circuits.FU]*workload.Stream
}

// NewLab builds the four FUs and profiles the application datasets.
func NewLab(scale Scale) (*Lab, error) {
	units := make(map[circuits.FU]*core.FUnit)
	for _, fu := range scale.fus() {
		u, err := core.NewFUnit(fu)
		if err != nil {
			return nil, err
		}
		units[fu] = u
	}
	lab := &Lab{
		Scale:      scale,
		Units:      units,
		Images:     imaging.SyntheticSet(scale.Images, scale.ImageSize, scale.ImageSize),
		appStreams: make(map[string]map[circuits.FU]*workload.Stream),
	}
	if err := lab.profileApps(); err != nil {
		return nil, err
	}
	return lab, nil
}

// profileApps records per-FU operand streams from both applications over
// the image set. FUs an application does not exercise natively get a
// value-preserving conversion of its pixel-derived operands, so every FU
// has all three datasets (the paper's kernels run all four FUs on the
// GPU; our Go kernels split int/float pipelines — see DESIGN.md).
func (l *Lab) profileApps() error {
	for _, app := range inject.Apps {
		perFU, err := recordApp(app, l.Images, l.Scale.AppStreamCap)
		if err != nil {
			return err
		}
		name := appDataset(app)
		var native []*workload.Stream
		for _, fu := range app.FUs() {
			perFU[fu].Name = name
			native = append(native, perFU[fu])
		}
		// Derive streams for the other two FUs by converting operand
		// values between integer and float domains.
		converted := 0
		for _, fu := range l.Scale.fus() {
			if _, ok := perFU[fu]; ok {
				continue
			}
			src := native[converted%len(native)]
			converted++
			perFU[fu] = convertStream(src, fu.IsFloat())
		}
		l.appStreams[name] = perFU
	}
	return nil
}

// recordApp profiles app over images: the operand stream of each FU it
// exercises, at most capPerFU pairs each.
func recordApp(app inject.App, images []*imaging.Image, capPerFU int) (map[circuits.FU]*workload.Stream, error) {
	rec := inject.NewRecording(capPerFU)
	for _, img := range images {
		app.Run(img, rec)
	}
	streams := make(map[circuits.FU]*workload.Stream)
	for _, fu := range app.FUs() {
		s, err := rec.Stream(fu)
		if err != nil {
			return nil, fmt.Errorf("experiments: profiling %v/%v: %w", app, fu, err)
		}
		streams[fu] = s
	}
	return streams, nil
}

// appDataset names the dataset profiled from app.
func appDataset(app inject.App) string {
	if app == inject.GaussApp {
		return DatasetGauss
	}
	return DatasetSobel
}

// convertStream maps operand values between domains, preserving
// magnitudes (the workload's "shape").
func convertStream(s *workload.Stream, toFloat bool) *workload.Stream {
	pairs := make([]workload.OperandPair, len(s.Pairs))
	for i, p := range s.Pairs {
		if toFloat {
			pairs[i] = workload.OperandPair{
				A: circuits.BitsFromFloat32(float32(int32(p.A))),
				B: circuits.BitsFromFloat32(float32(int32(p.B))),
			}
		} else {
			pairs[i] = workload.OperandPair{
				A: uint32(int32(circuits.Float32FromBits(p.A))),
				B: uint32(int32(circuits.Float32FromBits(p.B))),
			}
		}
	}
	return &workload.Stream{Name: s.Name, Pairs: pairs}
}

// Stream returns the named dataset's operand stream for a FU, sized for
// training or testing. Random data is freshly generated per role;
// application data is split between roles (the paper uses 5 % of images
// for training and the rest for testing).
func (l *Lab) Stream(fu circuits.FU, dataset string, train bool) (*workload.Stream, error) {
	n := l.Scale.TestCycles
	seed := l.Scale.Seed + int64(fu)*31 + 1000
	if train {
		n = l.Scale.TrainCycles
		seed += 7
	}
	if dataset == DatasetRandom {
		return workload.Random(fu.IsFloat(), n+1, seed), nil
	}
	perFU, ok := l.appStreams[dataset]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown dataset %q", dataset)
	}
	s, ok := perFU[fu]
	if !ok {
		return nil, fmt.Errorf("experiments: dataset %q has no stream for %v", dataset, fu)
	}
	// Train on a small head slice, test on the remainder — mirroring the
	// paper's 5 % / 95 % image split. At reduced scales the 5 % slice is
	// floored at 100 pairs so the model sees enough of the application
	// distribution to learn at all.
	cut := s.Len() / 20
	if cut < 100 {
		cut = 100
	}
	if cut > s.Len()/2 {
		cut = s.Len() / 2
	}
	if train {
		return s.Slice(0, cut), nil
	}
	return s.Slice(cut, s.Len()), nil
}

// DelayRow is one point of Fig. 3: the mean dynamic delay of a dataset
// on a FU at a corner.
type DelayRow struct {
	FU        circuits.FU
	Corner    cells.Corner
	Dataset   string
	MeanDelay float64 // ps
	MaxDelay  float64 // ps
	Static    float64 // ps
}

// Fig3 characterizes every FU × dataset × corner combination and returns
// the average dynamic delays the paper plots in Fig. 3. Corners defaults
// to the paper's 9-corner plot subset when the scale has none.
//
// The cells run concurrently on the fault-tolerant runner (see Fig3Run
// for per-cell failure reporting, deadlines, and checkpoint/resume);
// this wrapper keeps the original strict contract: any failed cell
// surfaces as an error.
func Fig3(lab *Lab, corners []cells.Corner) ([]DelayRow, error) {
	rows, rep, err := Fig3Run(context.Background(), lab, corners, runner.Config{})
	if err != nil {
		return nil, err
	}
	if err := rep.Err(); err != nil {
		return nil, err
	}
	return rows, nil
}

// Table3Cell is one cell of Table III: a model's mean prediction
// accuracy for one FU and dataset, averaged over corners and speedups.
type Table3Cell struct {
	FU       circuits.FU
	Dataset  string
	Model    string
	Accuracy float64
}

// Table3 trains TEVoT per FU (on random data plus a slice of application
// data, as the paper does) and evaluates it and the three baselines on
// held-out data across the scale's corners and speedups.
//
// Per-FU pipelines run concurrently on the fault-tolerant runner (see
// Table3Run); this wrapper keeps the original strict contract: any
// failed FU surfaces as an error.
func Table3(lab *Lab) ([]Table3Cell, error) {
	cells3, rep, err := Table3Run(context.Background(), lab, runner.Config{})
	if err != nil {
		return nil, err
	}
	if err := rep.Err(); err != nil {
		return nil, err
	}
	return cells3, nil
}

// MeanAccuracy averages the accuracy of one model over a Table III cell
// list (the paper's headline 98.25 % aggregates all FUs and datasets).
func MeanAccuracy(cells3 []Table3Cell, model string) float64 {
	sum, n := 0.0, 0
	for _, c := range cells3 {
		if c.Model == model {
			sum += c.Accuracy
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// Table2 reproduces the learning-method comparison on one FU at one
// corner: LR, k-NN, SVM, RFC accuracy and train/test times. The FP
// adder is used when available — its exponent-driven dynamic delay is
// the clearest stage for the methods' differences (the ripple adder's
// carry-chain delay is pathologically hard for every axis-aligned or
// linear learner; see EXPERIMENTS.md).
// Table II is a method comparison, so the capture clock is chosen to
// balance the two classes (an overclock deep enough that a sizeable
// fraction of cycles err): the 60th percentile of the training
// delays. At the paper's tail-only clocks every method ties at the
// majority rate and the comparison is uninformative.
//
// The comparison runs as one cell on the fault-tolerant runner (see
// Table2Run); this wrapper keeps the original strict contract.
func Table2(lab *Lab) ([]core.MethodResult, error) {
	results, rep, err := Table2Run(context.Background(), lab, runner.Config{})
	if err != nil {
		return nil, err
	}
	if err := rep.Err(); err != nil {
		return nil, err
	}
	return results, nil
}
