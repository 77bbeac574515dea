// Command tevot-train trains TEVoT and evaluates it against the three
// baseline error models across functional units, datasets, operating
// corners, and clock speedups — the paper's Table III. With -compare it
// instead reproduces Table II, the learning-method comparison (LR, k-NN,
// SVM, RFC).
//
// All modes run on the fault-tolerant runner: a failing or panicking
// per-FU pipeline is reported and skipped instead of killing the run,
// and -checkpoint/-resume let an interrupted paper-scale sweep (Ctrl-C
// is caught and flushed) pick up where it left off. The runner flags are
// the execution block shared with tevot-sweep and -dta
// (cmd/internal/execflags).
//
// Examples:
//
//	tevot-train -cycles 5000 -corners 3          # quick Table III
//	tevot-train -paper -checkpoint t3.ckpt       # full sweep, resumable
//	tevot-train -compare -cycles 20000           # Table II
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"tevot/cmd/internal/execflags"
	"tevot/internal/circuits"
	"tevot/internal/core"
	"tevot/internal/experiments"
	"tevot/internal/obs"
	"tevot/internal/runner"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tevot-train: ")
	var (
		cycles  = flag.Int("cycles", 2000, "training cycles per corner (test uses ~40%)")
		nCorner = flag.Int("corners", 3, "number of corners sampled from the Table I grid")
		fuName  = flag.String("fu", "", "restrict to one FU (default: all four)")
		paper   = flag.Bool("paper", false, "run the paper-scale sweep (100 corners, 200K cycles)")
		compare = flag.Bool("compare", false, "run the Table II learning-method comparison instead")
		seed    = flag.Int64("seed", 1, "global seed")
		saveDir = flag.String("savemodels", "", "train one TEVoT model per FU on random data and save to this directory (skips evaluation)")
	)
	ex := execflags.Register(flag.CommandLine, execflags.ManyTasks)
	obsFlags := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	run, err := obsFlags.Start("tevot-train", *seed, runner.LiveProgress)
	if err != nil {
		log.Fatal(err) // lint:allow-raw-print (before obs.Start; no run manifest yet)
	}
	defer run.Close()

	var scale experiments.Scale
	if *paper {
		scale = experiments.Paper()
	} else {
		scale = experiments.Small()
		scale.TrainCycles = *cycles
		scale.TestCycles = (*cycles * 2) / 5
		scale.AppStreamCap = *cycles
		all := core.TableIGrid().Corners()
		if *nCorner > len(all) {
			*nCorner = len(all)
		}
		scale.Corners = scale.Corners[:0]
		for i := 0; i < *nCorner; i++ {
			scale.Corners = append(scale.Corners, all[i*len(all)/(*nCorner)])
		}
	}
	scale.Seed = *seed
	if *fuName != "" {
		fu, err := circuits.ParseFU(*fuName)
		if err != nil {
			run.Fatal(err)
		}
		scale.FUs = []circuits.FU{fu}
	}

	lab, err := experiments.NewLab(scale)
	if err != nil {
		run.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := ex.Runner()

	if *saveDir != "" {
		saveModels(ctx, run, ex, lab, cfg, *saveDir)
		return
	}

	if *compare {
		results, rep, err := experiments.Table2Run(ctx, lab, cfg)
		ex.Check(run, rep, err)
		fmt.Println("Table II — learning-method comparison")
		fmt.Println("method  accuracy  train-time    test-time")
		for _, r := range results {
			fmt.Printf("%-6s %8.2f%% %12v %12v\n", r.Method, 100*r.Accuracy, r.TrainTime, r.TestTime)
		}
		execflags.Finish(run, rep)
	}

	cells3, rep, err := experiments.Table3Run(ctx, lab, cfg)
	ex.Check(run, rep, err)
	fmt.Printf("Table III — prediction accuracy across %d corners, %d speedups\n",
		len(scale.Corners), len(scale.Speedups))
	fmt.Println("FU       dataset        TEVoT    Delay-based  TER-based  TEVoT-NH")
	for _, fu := range circuits.AllFUs {
		for _, ds := range experiments.Datasets {
			var row [4]float64
			found := false
			for _, c := range cells3 {
				if c.FU != fu || c.Dataset != ds {
					continue
				}
				found = true
				switch c.Model {
				case "TEVoT":
					row[0] = c.Accuracy
				case "Delay-based":
					row[1] = c.Accuracy
				case "TER-based":
					row[2] = c.Accuracy
				case "TEVoT-NH":
					row[3] = c.Accuracy
				}
			}
			if !found {
				continue
			}
			fmt.Printf("%-8s %-13s %6.2f%% %11.2f%% %9.2f%% %9.2f%%\n",
				fu, ds, 100*row[0], 100*row[1], 100*row[2], 100*row[3])
		}
	}
	fmt.Printf("\nmean: TEVoT %.2f%% | Delay-based %.2f%% | TER-based %.2f%% | TEVoT-NH %.2f%%\n",
		100*experiments.MeanAccuracy(cells3, "TEVoT"),
		100*experiments.MeanAccuracy(cells3, "Delay-based"),
		100*experiments.MeanAccuracy(cells3, "TER-based"),
		100*experiments.MeanAccuracy(cells3, "TEVoT-NH"))
	execflags.Finish(run, rep)
}

// savedModel is the checkpointable record of one trained-and-saved
// model.
type savedModel struct {
	Path        string
	TopFeatures []string
}

// saveModels trains one TEVoT model per FU on random data and saves it,
// with each per-FU pipeline as one runner cell. Like Table3Run's lanes,
// the few unequal cells each get the whole machine's shards.
func saveModels(ctx context.Context, run *obs.Run, ex *execflags.Flags, lab *experiments.Lab, cfg runner.Config, dir string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		run.Fatal(err)
	}
	scale := lab.Scale
	opts := lab.CharOpts(1)
	var tasks []runner.Task[savedModel]
	for fu, u := range lab.Units {
		fu, u := fu, u
		tasks = append(tasks, runner.Task[savedModel]{
			Key: "train-save/" + fu.String(),
			Run: func(ctx context.Context) (savedModel, error) {
				var traces []*core.Trace
				for _, corner := range scale.Corners {
					train, err := lab.Stream(fu, experiments.DatasetRandom, true)
					if err != nil {
						return savedModel{}, err
					}
					// core.Train reads only delays: no clocks, no calibration.
					tr, err := core.CharacterizeOptsContext(ctx, u, corner, train, nil, opts)
					if err != nil {
						return savedModel{}, err
					}
					traces = append(traces, tr)
				}
				model, err := core.Train(fu, traces, core.DefaultConfig())
				if err != nil {
					return savedModel{}, err
				}
				path := filepath.Join(dir, strings.ToLower(fu.String())+".tevot")
				f, err := os.Create(path)
				if err != nil {
					return savedModel{}, err
				}
				if err := model.Save(f); err != nil {
					f.Close()
					return savedModel{}, err
				}
				if err := f.Close(); err != nil {
					return savedModel{}, err
				}
				return savedModel{Path: path, TopFeatures: model.TopFeatures(3)}, nil
			},
		})
	}
	if cfg.Name == "" {
		cfg.Name = fmt.Sprintf("train-save corners=%d cycles=%d seed=%d", len(scale.Corners), scale.TrainCycles, scale.Seed)
	}
	results, rep, err := runner.Run(ctx, cfg, tasks)
	ex.Check(run, rep, err)
	for _, fu := range circuits.AllFUs {
		if m, ok := results["train-save/"+fu.String()]; ok {
			fmt.Printf("saved %v model (top features: %v) to %s\n", fu, m.TopFeatures, m.Path)
		}
	}
	execflags.Finish(run, rep)
}
