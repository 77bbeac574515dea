// Package execflags is the execution flag block the DTA CLIs share
// (tevot-sweep, -train, -dta and -quality), registered once the way
// obs.RegisterFlags registers the observability block:
//
//	-shards N          simulation shards per characterization (0 = auto)
//	-task-timeout D    per-task deadline on the runner (0 = none)
//	-retries N         retries per task for transient failures
//	-checkpoint path   JSONL checkpoint, written as tasks complete
//	-resume            skip tasks already in -checkpoint
//	-workers N         concurrent tasks (0 = GOMAXPROCS)
//
// It also holds the end those CLIs share for a run on the runner: the
// interrupted-run exit (resume hint, code 130) and the report tail.
//
// The block has no memo flag: each simulation shard keeps the
// transition memo only while it hits (core.CharacterizeOptsContext),
// with bit-identical results either way.
package execflags

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"time"

	"tevot/internal/obs"
	"tevot/internal/runner"
)

// Shape says which part of the block a CLI's run reads.
type Shape int

const (
	// Sim is -shards alone: characterizations off the runner.
	Sim Shape = iota
	// OneTask adds -task-timeout, -retries, -checkpoint and -resume: a
	// run of one runner task.
	OneTask
	// ManyTasks adds the runner's -workers pool size.
	ManyTasks
)

// Flags holds the parsed values of the block.
type Flags struct {
	Workers     int
	Shards      int
	TaskTimeout time.Duration
	Retries     int
	Checkpoint  string
	Resume      bool
}

// Register installs the flags a run of the given shape reads on fs
// (the CLIs pass flag.CommandLine). Call before flag.Parse.
func Register(fs *flag.FlagSet, shape Shape) *Flags {
	f := &Flags{}
	fs.IntVar(&f.Shards, "shards", 0, "simulation shards per characterization (0 = auto)")
	if shape == Sim {
		return f
	}
	fs.DurationVar(&f.TaskTimeout, "task-timeout", 0, "per-task deadline (0 = none), e.g. 5m")
	fs.IntVar(&f.Retries, "retries", 1, "retries per task for transient failures")
	fs.StringVar(&f.Checkpoint, "checkpoint", "", "JSONL checkpoint file (written as tasks complete)")
	fs.BoolVar(&f.Resume, "resume", false, "skip tasks already in -checkpoint")
	if shape == ManyTasks {
		fs.IntVar(&f.Workers, "workers", 0, "concurrent tasks (0 = GOMAXPROCS)")
	}
	return f
}

// Runner returns the runner configuration the flags describe.
func (f *Flags) Runner(seed int64) runner.Config {
	return runner.Config{
		Workers:     f.Workers,
		TaskTimeout: f.TaskTimeout,
		Retries:     f.Retries,
		Seed:        seed,
		Checkpoint:  f.Checkpoint,
		Resume:      f.Resume,
	}
}

// Interrupted ends an interrupted run: it marks the manifest, logs msg
// with a resume hint when a checkpoint is set, and exits 130.
func (f *Flags) Interrupted(run *obs.Run, msg string) {
	run.SetInterrupted()
	if f.Checkpoint != "" {
		msg += fmt.Sprintf(" — rerun with -checkpoint %s -resume to continue", f.Checkpoint)
	}
	run.Log.Warn(msg)
	run.Exit(130)
}

// Check ends the run when a runner sweep returned an error: an
// interruption prints and notes the partial report, then exits through
// Interrupted; any other error is fatal. It returns when err is nil.
func (f *Flags) Check(run *obs.Run, rep *runner.Report, err error) {
	if err == nil {
		return
	}
	if !errors.Is(err, context.Canceled) {
		run.Fatal(err)
	}
	fmt.Println(rep.Summary())
	run.Note("report", rep)
	f.Interrupted(run, "interrupted")
}

// Finish is the report tail: it prints the summary, notes the report in
// the manifest, and exits 1 when any task failed, 0 otherwise.
func Finish(run *obs.Run, rep *runner.Report) {
	fmt.Printf("\n%s\n", rep.Summary())
	run.Note("report", rep)
	if rep.Failed > 0 {
		run.Exit(1)
	}
	run.Exit(0)
}
