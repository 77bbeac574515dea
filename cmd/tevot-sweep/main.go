// Command tevot-sweep regenerates the paper's Fig. 3: the average
// dynamic delay of each functional unit under each dataset across
// operating corners. By default it sweeps the paper's 9-corner plot
// subset; -grid sweeps the full 100-corner Table I grid.
//
// The sweep runs on the fault-tolerant runner: cells execute on a
// bounded worker pool, a panicking or failing cell is reported and
// skipped instead of killing the run, and -checkpoint/-resume let an
// interrupted sweep (SIGINT and SIGTERM are caught and flushed) pick up where it
// left off.
//
// Distributed modes (internal/dist) scale the same sweep across
// processes with identical output bytes:
//
//   - -coordinator ADDR leases cells to workers over HTTP, journaling
//     completed cells to -checkpoint (resumable with -resume) and
//     writing the merged JSONL to -out;
//   - -join URL turns this process into a worker of that coordinator
//     (grid flags are ignored — the spec comes from the coordinator);
//     -id names it stably, so a restarted worker releases its stale
//     leases at once;
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
// Fault drills (internal/chaos): -chaos-seed N arms a deterministic
// fault schedule generated from N; -chaos-profile picks a named plane
// mix (light, network, disk, clock, heavy) instead of a generated one.
// The network plane wraps worker HTTP transports, the disk plane wraps
// the checkpoint/journal filesystem, and the clock plane skews the
// coordinator's lease clock. Same seed, same schedule — a failing
// drill replays verbatim (see scripts/chaos_soak.sh).
//
//	tevot-sweep -cluster 3 -out fig3.jsonl -chaos-seed 7
//	tevot-sweep -join http://127.0.0.1:7077 -chaos-profile network -chaos-seed 7
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"tevot/internal/chaos"
	"tevot/internal/circuits"
	"tevot/internal/core"
	"tevot/internal/dist"
	"tevot/internal/experiments"
	"tevot/internal/obs"
	"tevot/internal/runner"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tevot-sweep: ")
	var (
		cycles  = flag.Int("cycles", 1500, "cycles per characterization")
		fuName  = flag.String("fu", "", "restrict to one FU (default: all four)")
		full    = flag.Bool("grid", false, "sweep the full Table I grid instead of the Fig. 3 subset")
		images  = flag.Int("images", 3, "synthetic images for application datasets")
		imgSize = flag.Int("imgsize", 24, "synthetic image side length")

		workers   = flag.Int("workers", 0, "concurrent cells (0 = GOMAXPROCS)")
		shards    = flag.Int("shards", 0, "simulation shards per cell (0 = auto: GOMAXPROCS/workers)")
		memoSet   = flag.String("memo", "on", "transition memo cache: on, off, or an entry cap (bit-identical either way)")
		taskTO    = flag.Duration("task-timeout", 0, "per-cell deadline (0 = none), e.g. 5m")
		retries   = flag.Int("retries", 1, "retries per cell for transient failures")
		ckpt      = flag.String("checkpoint", "", "JSONL checkpoint file (written as cells complete)")
		resume    = flag.Bool("resume", false, "skip cells already in -checkpoint")
		faultRate = flag.Float64("fault-rate", 0, "inject deterministic transient faults into this fraction of cells (testing)")
		seed      = flag.Int64("seed", 1, "seed for workloads, retry jitter, and fault injection")

		coordAddr = flag.String("coordinator", "", "run as distributed-sweep coordinator on this address (e.g. 127.0.0.1:7077)")
		joinURL   = flag.String("join", "", "run as a worker of the coordinator at this URL (e.g. http://127.0.0.1:7077)")
		workerID  = flag.String("id", "", "with -join: stable worker identity (default w-<hostname>-<pid>); reuse after a restart to release stale leases instantly")
		clusterN  = flag.Int("cluster", 0, "run an in-process local cluster with this many workers")
		outPath   = flag.String("out", "", "write merged result JSONL (canonical order; byte-identical across all modes)")
		leaseTTL  = flag.Duration("lease-ttl", 10*time.Second, "coordinator: lease TTL (workers renew at TTL/3)")

		chaosSeed    = flag.Int64("chaos-seed", 0, "arm a deterministic fault schedule generated from this seed (0 = off)")
		chaosProfile = flag.String("chaos-profile", "", "named fault profile: light, network, disk, clock, heavy (requires -chaos-seed)")
	)
	obsFlags := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	modes := 0
	for _, on := range []bool{*coordAddr != "", *joinURL != "", *clusterN > 0} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		log.Fatal("-coordinator, -join, and -cluster are mutually exclusive") // lint:allow-raw-print (before obs.Start; no run manifest yet)
	}
	sched, err := chaosSchedule(*chaosSeed, *chaosProfile)
	if err != nil {
		log.Fatal(err) // lint:allow-raw-print (before obs.Start; no run manifest yet)
	}

	spec := dist.Spec{
		Cycles:       *cycles,
		Images:       *images,
		ImageSize:    *imgSize,
		Seed:         *seed,
		ShardWorkers: *shards,
	}
	if *fuName != "" {
		spec.FUs = []string{*fuName}
	}
	spec.Corners = core.Fig3Corners()
	if *full {
		spec.Corners = core.TableIGrid().Corners()
	}

	switch {
	case *coordAddr != "":
		coordinatorMain(obsFlags, spec, *coordAddr, *leaseTTL, *ckpt, *resume, *outPath, *seed, sched)
		return
	case *joinURL != "":
		workerMain(obsFlags, *joinURL, *workerID, *taskTO, *retries, *seed, sched)
		return
	case *clusterN > 0:
		clusterMain(obsFlags, spec, *clusterN, *leaseTTL, *ckpt, *resume, *outPath, *taskTO, *retries, *seed, sched)
		return
	}

	run, err := obsFlags.Start("tevot-sweep", *seed, runner.LiveProgress)
	if err != nil {
		log.Fatal(err) // lint:allow-raw-print (before obs.Start; no run manifest yet)
	}
	defer run.Close()

	scale := experiments.Small()
	scale.TestCycles = *cycles
	scale.TrainCycles = *cycles
	scale.Images = *images
	scale.ImageSize = *imgSize
	scale.AppStreamCap = *cycles
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
	corners := core.Fig3Corners()
	if *full {
		corners = core.TableIGrid().Corners()
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
		Inject:      runner.NewFaultInjector(*seed, *faultRate),
	}
	if sched != nil {
		// Single-process mode has no network or lease clock; only the
		// disk plane applies (the checkpoint file).
		cfg.FS = chaos.NewFS(sched.Seed, sched.Disk)
		run.Log.Warn("chaos armed (disk plane only in single-process mode)", "schedule", sched.String())
	}
	rows, rep, err := experiments.Fig3Run(ctx, lab, corners, cfg)
	interrupted := errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		run.Fatal(err)
	}

	fmt.Println("FU       (V, T)          dataset        mean(ps)   max(ps)  static(ps)")
	for _, r := range rows {
		fmt.Printf("%-8s %-14s  %-13s %9.1f %9.1f %10.1f\n",
			r.FU, r.Corner, r.Dataset, r.MeanDelay, r.MaxDelay, r.Static)
	}
	fmt.Printf("\n%s\n", rep.Summary())
	run.Note("report", rep)
	if *outPath != "" && !interrupted {
		if err := writeMergedRows(spec, rows, *outPath); err != nil {
			run.Fatal(err)
		}
		run.Log.Info("merged output written", "path", *outPath, "rows", len(rows))
	}
	if interrupted {
		run.SetInterrupted()
		hint := ""
		if *ckpt != "" {
			hint = fmt.Sprintf(" — rerun with -checkpoint %s -resume to continue", *ckpt)
		}
		run.Log.Warn("interrupted" + hint)
		run.Exit(130)
	}
	if rep.Failed > 0 {
		run.Exit(1)
	}
}

// writeMergedRows writes the single-process sweep's rows as the same
// canonical merged JSONL the distributed coordinator emits — the
// byte-identity contract between execution modes.
func writeMergedRows(spec dist.Spec, rows []experiments.DelayRow, path string) error {
	order, err := spec.Cells()
	if err != nil {
		return err
	}
	results := make(map[string]json.RawMessage, len(rows))
	for _, r := range rows {
		raw, err := dist.MarshalRow(r)
		if err != nil {
			return err
		}
		results[experiments.Fig3CellKey(r.FU, r.Dataset, r.Corner)] = raw
	}
	return dist.WriteMergedFile(path, order, results)
}

// chaosSchedule resolves the -chaos-seed/-chaos-profile flags into a
// fault schedule (nil = chaos off).
func chaosSchedule(seed int64, profile string) (*chaos.Schedule, error) {
	if seed == 0 && profile == "" {
		return nil, nil
	}
	if seed == 0 {
		return nil, fmt.Errorf("-chaos-profile requires -chaos-seed")
	}
	if profile == "" {
		s := chaos.Generate(seed)
		return &s, nil
	}
	s, err := chaos.Profile(profile, seed)
	if err != nil {
		return nil, err
	}
	return &s, nil
}

// driveClock plays the schedule's clock events against a live lease
// clock: jumps past the TTL (stranding in-flight leases) and a freeze
// longer than the TTL (minting deadlines that land in the past after
// thaw). expire, when non-nil, forces an immediate expiry sweep so the
// event is observed before the next periodic sweep.
func driveClock(ctx context.Context, clock *chaos.Clock, sched *chaos.Schedule, ttl time.Duration, expire func() int) {
	if expire == nil {
		expire = func() int { return 0 }
	}
	for j := 0; j < sched.ClockJumps; j++ {
		select {
		case <-ctx.Done():
			return
		case <-time.After(ttl):
		}
		clock.Jump(2 * ttl)
		expire()
	}
	if sched.ClockFreeze {
		clock.Freeze()
		select {
		case <-ctx.Done():
			return
		case <-time.After(ttl + 100*time.Millisecond):
		}
		clock.Thaw()
		expire()
	}
}

// coordinatorMain runs the distributed-sweep coordinator until the
// sweep completes, aborts on divergence, or is interrupted.
func coordinatorMain(obsFlags *obs.Flags, spec dist.Spec, addr string, ttl time.Duration, journal string, resume bool, out string, seed int64, sched *chaos.Schedule) {
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

	ccfg := dist.CoordConfig{
		Spec:     spec,
		Addr:     addr,
		LeaseTTL: ttl,
		Journal:  journal,
		Resume:   resume,
		Out:      out,
	}
	var now func() time.Time
	var clock *chaos.Clock
	if sched != nil {
		ccfg.FS = chaos.NewFS(sched.Seed, sched.Disk)
		clock = chaos.NewClock()
		now = clock.Now
		run.Log.Warn("chaos armed (disk + clock planes)", "schedule", sched.String())
	}
	coord, err := dist.NewCoordinator(ccfg, now)
	if err != nil {
		run.Fatal(err)
	}
	cp.Store(coord) // the debug endpoint's /progress payload source

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if clock != nil {
		go driveClock(ctx, clock, sched, ttl, coord.ExpireNow)
	}

	err = coord.Serve(ctx)
	p := coord.Progress()
	run.Note("progress", p)
	switch {
	case errors.Is(err, context.Canceled):
		run.SetInterrupted()
		hint := ""
		if journal != "" {
			hint = fmt.Sprintf(" — rerun with -checkpoint %s -resume to continue", journal)
		}
		run.Log.Warn(fmt.Sprintf("interrupted with %d/%d cells done%s", p.Done, p.Cells, hint))
		run.Exit(130)
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
func workerMain(obsFlags *obs.Flags, url, id string, taskTO time.Duration, retries int, seed int64, sched *chaos.Schedule) {
	run, err := obsFlags.Start("tevot-sweep-worker", seed, runner.LiveProgress)
	if err != nil {
		log.Fatal(err) // lint:allow-raw-print (before obs.Start; no run manifest yet)
	}
	defer run.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	wcfg := dist.WorkerConfig{
		ID:          id,
		Coordinator: url,
		TaskTimeout: taskTO,
		Retries:     retries,
	}
	if sched != nil {
		// A worker process owns only the network plane: its RPCs to the
		// coordinator go through the fault transport.
		wcfg.Transport = chaos.NewTransport(sched.Seed, sched.Net, nil)
		run.Log.Warn("chaos armed (network plane)", "schedule", sched.String())
	}
	err = dist.RunWorker(ctx, wcfg)
	switch {
	case errors.Is(err, context.Canceled):
		run.SetInterrupted()
		run.Log.Warn("interrupted")
		run.Exit(130)
	case err != nil:
		run.Fatal(err)
	}
}

// clusterMain runs coordinator plus N workers inside this process.
func clusterMain(obsFlags *obs.Flags, spec dist.Spec, n int, ttl time.Duration, journal string, resume bool, out string, taskTO time.Duration, retries int, seed int64, sched *chaos.Schedule) {
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

	clcfg := dist.ClusterConfig{
		Coord: dist.CoordConfig{
			Spec:     spec,
			LeaseTTL: ttl,
			Journal:  journal,
			Resume:   resume,
			Out:      out,
		},
		Workers: n,
		Worker:  dist.WorkerConfig{TaskTimeout: taskTO, Retries: retries},
	}
	if sched != nil {
		// All three planes in one process: fault transport on every
		// worker, fault FS under the journal, skewed lease clock. Expiry
		// is observed at the coordinator's next periodic sweep.
		clcfg.Coord.FS = chaos.NewFS(sched.Seed, sched.Disk)
		clcfg.Worker.Transport = chaos.NewTransport(sched.Seed, sched.Net, nil)
		clock := chaos.NewClock()
		clcfg.Now = clock.Now
		go driveClock(ctx, clock, sched, ttl, nil)
		run.Log.Warn("chaos armed (network + disk + clock planes)", "schedule", sched.String())
	}
	err = dist.RunLocalCluster(ctx, clcfg)
	switch {
	case errors.Is(err, context.Canceled):
		run.SetInterrupted()
		run.Exit(130)
	case err != nil:
		run.Fatal(err)
	default:
		fmt.Printf("cluster sweep complete: merged output at %s\n", out)
	}
}
