// Command tevot-train trains TEVoT and evaluates it against the three
// baseline error models across functional units, datasets, operating
// corners, and clock speedups — the paper's Table III. With -compare it
// instead reproduces Table II, the learning-method comparison (LR, k-NN,
// SVM, RFC).
//
// All modes run on the fault-tolerant runner: a failing or panicking
// per-FU pipeline is reported and skipped instead of killing the run,
// and -checkpoint/-resume let an interrupted paper-scale sweep (Ctrl-C
// is caught and flushed) pick up where it left off.
//
// Examples:
//
//	tevot-train -cycles 5000 -corners 3          # quick Table III
//	tevot-train -paper -checkpoint t3.ckpt       # full sweep, resumable
//	tevot-train -compare -cycles 20000           # Table II
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"tevot/internal/circuits"
	"tevot/internal/core"
	"tevot/internal/experiments"
	"tevot/internal/obs"
	"tevot/internal/runner"
)

// run is the observability lifecycle for this invocation (profiles,
// debug endpoint, run manifest); set in main, used by the finish/exit
// helpers on every termination path.
var run *obs.Run

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

		workers = flag.Int("workers", 0, "concurrent per-FU pipelines (0 = GOMAXPROCS)")
		shards  = flag.Int("shards", 0, "simulation shards per characterization (0 = auto: GOMAXPROCS)")
		memoSet = flag.String("memo", "on", "transition memo cache: on, off, or an entry cap (bit-identical either way)")
		taskTO  = flag.Duration("task-timeout", 0, "per-pipeline deadline (0 = none), e.g. 30m")
		retries = flag.Int("retries", 1, "retries per pipeline for transient failures")
		ckpt    = flag.String("checkpoint", "", "JSONL checkpoint file (written as pipelines complete)")
		resume  = flag.Bool("resume", false, "skip pipelines already in -checkpoint")
	)
	obsFlags := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	var err error
	run, err = obsFlags.Start("tevot-train", *seed, runner.LiveProgress)
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
	scale.ShardWorkers = *shards
	memo, err := core.ParseMemoSetting(*memoSet)
	if err != nil {
		run.Fatal(err)
	}
	scale.MemoOff = memo.MemoOff
	scale.MemoSize = memo.MemoSize
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

	cfg := runner.Config{
		Workers:     *workers,
		TaskTimeout: *taskTO,
		Retries:     *retries,
		Seed:        *seed,
		Checkpoint:  *ckpt,
		Resume:      *resume,
	}

	if *saveDir != "" {
		saveModels(ctx, lab, cfg, *saveDir)
		return
	}

	if *compare {
		results, rep, err := experiments.Table2Run(ctx, lab, cfg)
		finish(rep, err, *ckpt)
		fmt.Println("Table II — learning-method comparison")
		fmt.Println("method  accuracy  train-time    test-time")
		for _, r := range results {
			fmt.Printf("%-6s %8.2f%% %12v %12v\n", r.Method, 100*r.Accuracy, r.TrainTime, r.TestTime)
		}
		exit(rep)
	}

	cells3, rep, err := experiments.Table3Run(ctx, lab, cfg)
	finish(rep, err, *ckpt)
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
	exit(rep)
}

// finish handles a sweep's terminal conditions: infrastructure errors
// are fatal, interruption prints a resume hint and exits 130, per-cell
// failures are left for exit() after the partial results print.
func finish(rep *runner.Report, err error, ckpt string) {
	if err == nil {
		return
	}
	if !errors.Is(err, context.Canceled) {
		run.Fatal(err)
	}
	fmt.Println(rep.Summary())
	run.Note("report", rep)
	run.SetInterrupted()
	hint := ""
	if ckpt != "" {
		hint = fmt.Sprintf(" — rerun with -checkpoint %s -resume to continue", ckpt)
	}
	run.Log.Warn("interrupted" + hint)
	run.Exit(130)
}

// exit prints the sweep report and sets the exit code: 0 only when every
// cell succeeded.
func exit(rep *runner.Report) {
	fmt.Printf("\n%s\n", rep.Summary())
	run.Note("report", rep)
	if rep.Failed > 0 {
		run.Exit(1)
	}
	run.Exit(0)
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
func saveModels(ctx context.Context, lab *experiments.Lab, cfg runner.Config, dir string) {
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
					if _, err := u.CalibrateBaseClockOptsContext(ctx, corner, train, opts); err != nil {
						return savedModel{}, err
					}
					tr, err := core.CharacterizeWithSpeedupsOptsContext(ctx, u, corner, train, scale.Speedups, opts)
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
	finish(rep, err, cfg.Checkpoint)
	for _, fu := range circuits.AllFUs {
		if m, ok := results["train-save/"+fu.String()]; ok {
			fmt.Printf("saved %v model (top features: %v) to %s\n", fu, m.TopFeatures, m.Path)
		}
	}
	exit(rep)
}
