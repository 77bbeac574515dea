// Command tevot-sweep regenerates the paper's Fig. 3: the average
// dynamic delay of each functional unit under each dataset across
// operating corners. By default it sweeps the paper's 9-corner plot
// subset; -grid sweeps the full 100-corner Table I grid.
//
// The sweep runs on the fault-tolerant runner (dist.SingleProcessMerged):
// cells execute on a bounded worker pool, a panicking or failing cell is
// reported and skipped instead of killing the run, and
// -checkpoint/-resume let an interrupted sweep (SIGINT and SIGTERM are
// caught and flushed) pick up where it left off. The runner and shard
// flags are the execution block shared with tevot-train, -dta and
// -quality (cmd/internal/execflags).
//
// Distributed modes (internal/dist) scale the same sweep across
// processes with identical output bytes:
//
//   - -coordinator ADDR leases cells to workers over HTTP, journaling
//     completed cells to -checkpoint (resumable with -resume) and
//     writing the merged JSONL to -out;
//   - -join URL turns this process into a worker of that coordinator
//     (the spec comes from the coordinator, so the grid flags are
//     refused); -id names it stably, so a restarted worker releases its
//     stale leases at once;
//   - -cluster N runs coordinator plus N workers in one process (the
//     drill/test mode).
//
// Examples:
//
//	tevot-sweep -cycles 2000 -fu INT_ADD
//	tevot-sweep -grid -workers 8 -checkpoint fig3.ckpt
//	tevot-sweep -grid -checkpoint fig3.ckpt -resume   # after a kill
//	tevot-sweep -grid -coordinator 127.0.0.1:7077 -checkpoint j.jsonl -out fig3.jsonl
//	tevot-sweep -join http://127.0.0.1:7077
//	tevot-sweep -join http://10.0.0.5:7077 -id rack3-a -task-timeout 10m
//	tevot-sweep -cluster 3 -out fig3.jsonl
//
// Each mode reads only some of the flags; setting one the chosen mode
// does not read (say -shards with -join, whose cells run with the
// coordinator's spec) exits 2 with a message that names it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"slices"
	"sync/atomic"
	"syscall"
	"time"

	"tevot/cmd/internal/execflags"
	"tevot/internal/core"
	"tevot/internal/dist"
	"tevot/internal/obs"
	"tevot/internal/runner"
)

// ignored lists, per mode (keyed by its flag; "" is the single-process
// sweep), the flags that mode does not read. A mode that names another
// mode's flag makes the modes mutually exclusive.
var ignored = map[string][]string{
	"":            {"id", "lease-ttl"},
	"coordinator": {"workers", "task-timeout", "retries", "fault-rate", "id", "join", "cluster"},
	"join": {"cycles", "fu", "grid", "images", "imgsize", "workers", "shards",
		"checkpoint", "resume", "fault-rate", "out", "lease-ttl", "cluster"},
	"cluster": {"workers", "fault-rate", "id"},
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("tevot-sweep: ")
	var (
		cycles  = flag.Int("cycles", 1500, "cycles per characterization")
		fuName  = flag.String("fu", "", "restrict to one FU (default: all four)")
		full    = flag.Bool("grid", false, "sweep the full Table I grid instead of the Fig. 3 subset")
		images  = flag.Int("images", 3, "synthetic images for application datasets")
		imgSize = flag.Int("imgsize", 24, "synthetic image side length")

		faultRate = flag.Float64("fault-rate", 0, "inject deterministic transient faults into this fraction of cells (testing)")
		seed      = flag.Int64("seed", 1, "seed for workloads, retry jitter, and fault injection")

		coordAddr = flag.String("coordinator", "", "run as distributed-sweep coordinator on this address (e.g. 127.0.0.1:7077)")
		joinURL   = flag.String("join", "", "run as a worker of the coordinator at this URL (e.g. http://127.0.0.1:7077)")
		workerID  = flag.String("id", "", "with -join: stable worker identity (default w-<hostname>-<pid>); reuse after a restart to release stale leases instantly")
		clusterN  = flag.Int("cluster", 0, "run an in-process local cluster with this many workers")
		outPath   = flag.String("out", "", "write merged result JSONL (canonical order; byte-identical across all modes)")
		leaseTTL  = flag.Duration("lease-ttl", 10*time.Second, "coordinator: lease TTL (workers renew at TTL/3)")
	)
	ex := execflags.Register(flag.CommandLine, execflags.ManyTasks)
	obsFlags := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	mode := ""
	switch {
	case *coordAddr != "":
		mode = "coordinator"
	case *joinURL != "":
		mode = "join"
	case *clusterN > 0:
		mode = "cluster"
	}
	flag.Visit(func(f *flag.Flag) {
		if !slices.Contains(ignored[mode], f.Name) {
			return
		}
		in := "single-process"
		if mode != "" {
			in = "-" + mode
		}
		fmt.Fprintf(flag.CommandLine.Output(), "tevot-sweep: -%s is not read in %s mode\n", f.Name, in)
		os.Exit(2)
	})

	spec := dist.Spec{
		Cycles:       *cycles,
		Images:       *images,
		ImageSize:    *imgSize,
		Seed:         *seed,
		ShardWorkers: ex.Shards,
	}
	if *fuName != "" {
		spec.FUs = []string{*fuName}
	}
	spec.Corners = core.Fig3Corners()
	if *full {
		spec.Corners = core.TableIGrid().Corners()
	}

	switch mode {
	case "coordinator":
		coordinatorMain(obsFlags, ex, spec, *coordAddr, *leaseTTL, *outPath, *seed)
		return
	case "join":
		workerMain(obsFlags, ex, *joinURL, *workerID, *seed)
		return
	case "cluster":
		clusterMain(obsFlags, ex, spec, *clusterN, *leaseTTL, *outPath, *seed)
		return
	}

	run, err := obsFlags.Start("tevot-sweep", *seed, runner.LiveProgress)
	if err != nil {
		log.Fatal(err) // lint:allow-raw-print (before obs.Start; no run manifest yet)
	}
	defer run.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := ex.Runner(*seed)
	cfg.Inject = runner.NewFaultInjector(*seed, *faultRate)
	rows, rep, err := dist.SingleProcessMerged(ctx, spec, cfg, *outPath)
	ex.Check(run, rep, err)

	fmt.Println("FU       (V, T)          dataset        mean(ps)   max(ps)  static(ps)")
	for _, r := range rows {
		fmt.Printf("%-8s %-14s  %-13s %9.1f %9.1f %10.1f\n",
			r.FU, r.Corner, r.Dataset, r.MeanDelay, r.MaxDelay, r.Static)
	}
	if *outPath != "" {
		run.Log.Info("merged output written", "path", *outPath, "rows", len(rows))
	}
	execflags.Finish(run, rep)
}

// coordinatorMain runs the distributed-sweep coordinator until the
// sweep completes, aborts on divergence, or is interrupted.
func coordinatorMain(obsFlags *obs.Flags, ex *execflags.Flags, spec dist.Spec, addr string, ttl time.Duration, out string, seed int64) {
	var cp atomic.Pointer[dist.Coordinator]
	run, err := obsFlags.Start("tevot-sweep-coordinator", seed, func() any {
		if c := cp.Load(); c != nil {
			return c.Progress()
		}
		return nil
	})
	if err != nil {
		log.Fatal(err) // lint:allow-raw-print (before obs.Start; no run manifest yet)
	}
	defer run.Close()

	coord, err := dist.NewCoordinator(dist.CoordConfig{
		Spec:     spec,
		Addr:     addr,
		LeaseTTL: ttl,
		Journal:  ex.Checkpoint,
		Resume:   ex.Resume,
		Out:      out,
	}, nil)
	if err != nil {
		run.Fatal(err)
	}
	cp.Store(coord) // the debug endpoint's /progress payload source

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	err = coord.Serve(ctx)
	p := coord.Progress()
	run.Note("progress", p)
	switch {
	case errors.Is(err, context.Canceled):
		ex.Interrupted(run, fmt.Sprintf("interrupted with %d/%d cells done", p.Done, p.Cells))
	case err != nil:
		run.Fatal(err)
	default:
		fmt.Printf("sweep complete: %d cells (%d resumed, %d reissued, %d duplicates)\n",
			p.Cells, p.Resumed, p.Reissues, p.Duplicates)
		if out != "" {
			fmt.Printf("merged output: %s\n", out)
		}
	}
}

// workerMain joins a coordinator as one worker process.
func workerMain(obsFlags *obs.Flags, ex *execflags.Flags, url, id string, seed int64) {
	run, err := obsFlags.Start("tevot-sweep-worker", seed, runner.LiveProgress)
	if err != nil {
		log.Fatal(err) // lint:allow-raw-print (before obs.Start; no run manifest yet)
	}
	defer run.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	err = dist.RunWorker(ctx, dist.WorkerConfig{
		ID:          id,
		Coordinator: url,
		TaskTimeout: ex.TaskTimeout,
		Retries:     ex.Retries,
	})
	switch {
	case errors.Is(err, context.Canceled):
		ex.Interrupted(run, "interrupted")
	case err != nil:
		run.Fatal(err)
	}
}

// clusterMain runs coordinator plus N workers inside this process.
func clusterMain(obsFlags *obs.Flags, ex *execflags.Flags, spec dist.Spec, n int, ttl time.Duration, out string, seed int64) {
	if out == "" {
		log.Fatal("-cluster requires -out for the merged result") // lint:allow-raw-print (before obs.Start; no run manifest yet)
	}
	run, err := obsFlags.Start("tevot-sweep-cluster", seed, runner.LiveProgress)
	if err != nil {
		log.Fatal(err) // lint:allow-raw-print (before obs.Start; no run manifest yet)
	}
	defer run.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	err = dist.RunLocalCluster(ctx, dist.ClusterConfig{
		Coord: dist.CoordConfig{
			Spec:     spec,
			LeaseTTL: ttl,
			Journal:  ex.Checkpoint,
			Resume:   ex.Resume,
			Out:      out,
		},
		Workers: n,
		Worker:  dist.WorkerConfig{TaskTimeout: ex.TaskTimeout, Retries: ex.Retries},
	})
	switch {
	case errors.Is(err, context.Canceled):
		ex.Interrupted(run, "interrupted")
	case err != nil:
		run.Fatal(err)
	default:
		fmt.Printf("cluster sweep complete: merged output at %s\n", out)
	}
}
