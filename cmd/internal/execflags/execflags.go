// Package execflags is the execution flag block the runner CLIs share
// (tevot-sweep, -train and -dta), registered once the way
// obs.RegisterFlags registers the observability block:
//
//	-task-timeout D    per-task deadline on the runner (0 = none)
//	-checkpoint path   JSONL checkpoint, written as tasks complete
//	-resume            skip tasks already in -checkpoint
//	-workers N         concurrent tasks (0 = GOMAXPROCS)
//
// A task runs once per run: one that fails, overruns -task-timeout or is
// cut short by SIGINT or SIGTERM is not checkpointed, and a rerun with
// -checkpoint and -resume runs it again.
//
// It also holds the end those CLIs share for a run on the runner: the
// interrupted-run exit (resume hint, code 130) and the report tail.
//
// The block has no shard or memo flag: experiments.Lab.CharOpts sizes
// every characterization's shards from GOMAXPROCS, and each simulation
// shard keeps the transition memo only while it hits
// (core.CharacterizeOptsContext), with bit-identical results either way.
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
	// OneTask is -task-timeout, -checkpoint and -resume: a run of one
	// runner task.
	OneTask Shape = iota
	// ManyTasks adds the runner's -workers pool size.
	ManyTasks
)

// Flags holds the parsed values of the block.
type Flags struct {
	Workers     int
	TaskTimeout time.Duration
	Checkpoint  string
	Resume      bool
}

// Register installs the flags a run of the given shape reads on fs
// (the CLIs pass flag.CommandLine). Call before flag.Parse.
func Register(fs *flag.FlagSet, shape Shape) *Flags {
	f := &Flags{}
	fs.DurationVar(&f.TaskTimeout, "task-timeout", 0, "per-task deadline (0 = none), e.g. 5m")
	fs.StringVar(&f.Checkpoint, "checkpoint", "", "JSONL checkpoint file (written as tasks complete)")
	fs.BoolVar(&f.Resume, "resume", false, "skip tasks already in -checkpoint")
	if shape == ManyTasks {
		fs.IntVar(&f.Workers, "workers", 0, "concurrent tasks (0 = GOMAXPROCS)")
	}
	return f
}

// Runner returns the runner configuration the flags describe.
func (f *Flags) Runner() runner.Config {
	return runner.Config{
		Workers:     f.Workers,
		TaskTimeout: f.TaskTimeout,
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
