// Command tevot-dta runs dynamic timing analysis for one functional
// unit at one operating corner: it generates the gate-level netlist,
// annotates it at the corner (optionally emitting the SDF file), runs
// back-annotated event-driven simulation over a random workload
// (optionally dumping a VCD), and prints the dynamic-delay statistics.
//
// The characterization itself runs as a cell on the fault-tolerant
// runner, so a -task-timeout deadline, Ctrl-C, or SIGTERM cancels it cleanly, and
// -checkpoint/-resume replay a completed analysis without re-simulating.
// Artifact writes (-sdf, -vcd, -lib) are plain file I/O and stay
// fail-fast. The execution flags are the block shared with tevot-sweep
// and -train (cmd/internal/execflags), less -workers: the run is one
// task. The characterization shards over GOMAXPROCS.
//
// Example:
//
//	tevot-dta -fu INT_ADD -v 0.81 -t 25 -cycles 5000 -sdf add.sdf -vcd add.vcd
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sort"
	"syscall"

	"tevot/cmd/internal/execflags"
	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/core"
	"tevot/internal/liberty"
	"tevot/internal/obs"
	"tevot/internal/runner"
	"tevot/internal/sdf"
	"tevot/internal/sim"
	"tevot/internal/vcd"
	"tevot/internal/workload"
)

// dtaResult is the checkpointable summary of one characterization cell.
type dtaResult struct {
	Cycles      int
	Events      int64
	MeanDelay   float64
	P50         float64
	P95         float64
	MaxDelay    float64
	StaticDelay float64
	MemoHits    int64
	MemoMisses  int64
	ShmooClocks []float64
	ShmooTER    []float64
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("tevot-dta: ")
	var (
		fuName  = flag.String("fu", "INT_ADD", "functional unit: INT_ADD, INT_MUL, FP_ADD, FP_MUL")
		voltage = flag.Float64("v", 0.90, "supply voltage (V)")
		temp    = flag.Float64("t", 25, "temperature (°C)")
		cycles  = flag.Int("cycles", 2000, "simulated cycles")
		seed    = flag.Int64("seed", 1, "workload seed")
		sdfPath = flag.String("sdf", "", "write the corner's SDF annotation to this file")
		vcdPath = flag.String("vcd", "", "write the simulation VCD to this file")
		libPath = flag.String("lib", "", "write the corner's Liberty cell library to this file")
		shmoo   = flag.Int("shmoo", 0, "print a TER-vs-clock shmoo with this many points")
		refKern = flag.Bool("ref-kernel", false, "simulate on the reference heap kernel (slow; for auditing the fast kernel)")
	)
	ex := execflags.Register(flag.CommandLine, execflags.OneTask)
	obsFlags := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	run, err := obsFlags.Start("tevot-dta", *seed, runner.LiveProgress)
	if err != nil {
		log.Fatal(err) // lint:allow-raw-print (before obs.Start; no run manifest yet)
	}
	defer run.Close()

	fu, err := circuits.ParseFU(*fuName)
	if err != nil {
		run.Fatal(err)
	}
	u, err := core.NewFUnit(fu)
	if err != nil {
		run.Fatal(err)
	}
	corner := cells.Corner{V: *voltage, T: *temp}
	static, err := u.Static(corner)
	if err != nil {
		run.Fatal(err)
	}
	fmt.Printf("%s @ %s: %d gates, static delay %.1f ps\n",
		fu, corner, u.NL.NumGates(), static.Delay)

	if *sdfPath != "" {
		f, err := sdf.FromAnnotation(u.NL, corner, static.GateDelay)
		if err != nil {
			run.Fatal(err)
		}
		w, err := os.Create(*sdfPath)
		if err != nil {
			run.Fatal(err)
		}
		if err := f.Write(w, u.NL); err != nil {
			run.Fatal(err)
		}
		if err := w.Close(); err != nil {
			run.Fatal(err)
		}
		fmt.Printf("wrote SDF annotation to %s\n", *sdfPath)
	}

	if *libPath != "" {
		lib, err := liberty.FromScaling("tevot45", u.Opts.Scaling, corner)
		if err != nil {
			run.Fatal(err)
		}
		w, err := os.Create(*libPath)
		if err != nil {
			run.Fatal(err)
		}
		if err := lib.Write(w); err != nil {
			run.Fatal(err)
		}
		if err := w.Close(); err != nil {
			run.Fatal(err)
		}
		fmt.Printf("wrote Liberty library to %s\n", *libPath)
	}

	stream := workload.Random(fu.IsFloat(), *cycles+1, *seed)

	if *vcdPath != "" {
		// Dump a VCD alongside the characterization by rerunning through
		// an observed runner.
		w, err := os.Create(*vcdPath)
		if err != nil {
			run.Fatal(err)
		}
		window := static.Delay * 1.5
		vw := vcd.NewWriter(w, u.NL, window)
		if err := vw.WriteHeader("tevot", "tevot-dta"); err != nil {
			run.Fatal(err)
		}
		newR := sim.NewRunner
		if *refKern {
			newR = sim.NewRefRunner
		}
		r, err := newR(u.NL, static.GateDelay)
		if err != nil {
			run.Fatal(err)
		}
		r.SetObserver(vw.Observe)
		prev := circuits.EncodeOperands(stream.Pairs[0].A, stream.Pairs[0].B)
		for k := 1; k < stream.Len(); k++ {
			vw.BeginCycle(k - 1)
			cur := circuits.EncodeOperands(stream.Pairs[k].A, stream.Pairs[k].B)
			if _, err := r.Cycle(prev, cur); err != nil {
				run.Fatal(err)
			}
			prev = nil
		}
		if err := vw.Close(); err != nil {
			run.Fatal(err)
		}
		if err := w.Close(); err != nil {
			run.Fatal(err)
		}
		fmt.Printf("wrote VCD to %s\n", *vcdPath)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	shmooN := *shmoo
	opts := core.CharacterizeOptions{RefKernel: *refKern}
	key := fmt.Sprintf("dta/%s/v%.4f_t%g", fu, corner.V, corner.T)
	task := runner.Task[dtaResult]{
		Key: key,
		Run: func(ctx context.Context) (dtaResult, error) {
			return characterize(ctx, u, corner, stream, shmooN, opts)
		},
	}
	cfg := ex.Runner()
	cfg.Name = fmt.Sprintf("dta fu=%s v=%.4f t=%g cycles=%d seed=%d shmoo=%d",
		fu, corner.V, corner.T, *cycles, *seed, shmooN)
	results, rep, err := runner.Run(ctx, cfg, []runner.Task[dtaResult]{task})
	ex.Check(run, rep, err)
	if rep.Failed > 0 {
		execflags.Finish(run, rep)
	}
	res := results[key]
	if rep.Resumed > 0 {
		fmt.Printf("(replayed from checkpoint %s)\n", ex.Checkpoint)
	}

	if len(res.ShmooClocks) > 0 {
		fmt.Println("\nshmoo: clock(ps)  TER")
		for k, c := range res.ShmooClocks {
			fmt.Printf("  %9.1f  %7.3f%%\n", c, 100*res.ShmooTER[k])
		}
		fmt.Println()
	}
	fmt.Printf("cycles      %d\n", res.Cycles)
	fmt.Printf("events      %d (%.0f per cycle)\n", res.Events, float64(res.Events)/float64(res.Cycles))
	if res.MemoHits+res.MemoMisses > 0 {
		fmt.Printf("memo        %.1f%% hit rate (%d hits, %d misses)\n",
			100*float64(res.MemoHits)/float64(res.MemoHits+res.MemoMisses), res.MemoHits, res.MemoMisses)
	}
	fmt.Printf("mean delay  %.1f ps\n", res.MeanDelay)
	fmt.Printf("p50 / p95   %.1f / %.1f ps\n", res.P50, res.P95)
	fmt.Printf("max delay   %.1f ps (%.1f%% of static)\n", res.MaxDelay, 100*res.MaxDelay/res.StaticDelay)
	execflags.Finish(run, rep)
}

// characterize is the body of the single DTA cell: shmoo probe (when
// requested) plus the main characterization, reduced to the compact
// summary the CLI prints, so a checkpointed result replays the exact
// printout without re-simulating.
func characterize(ctx context.Context, u *core.FUnit, corner cells.Corner, stream *workload.Stream, shmoo int, opts core.CharacterizeOptions) (dtaResult, error) {
	var clocks []float64
	if shmoo > 1 {
		// Two-pass: probe the dynamic-delay envelope on a short prefix,
		// then sweep capture clocks across it (40 %..110 % of the
		// observed max, where the TER curve actually moves).
		probeLen := stream.Len()
		if probeLen > 200 {
			probeLen = 200
		}
		probe, err := core.CharacterizeOptsContext(ctx, u, corner, stream.Slice(0, probeLen), nil, opts)
		if err != nil {
			return dtaResult{}, err
		}
		for i := 0; i < shmoo; i++ {
			frac := 0.4 + 0.7*float64(i)/float64(shmoo-1)
			clocks = append(clocks, probe.MaxDelay*frac)
		}
	}
	tr, err := core.CharacterizeOptsContext(ctx, u, corner, stream, clocks, opts)
	if err != nil {
		return dtaResult{}, err
	}
	res := dtaResult{
		Cycles:      tr.Cycles(),
		Events:      int64(tr.Events),
		MeanDelay:   tr.MeanDelay(),
		MaxDelay:    tr.MaxDelay,
		StaticDelay: tr.StaticDelay,
		MemoHits:    tr.MemoHits,
		MemoMisses:  tr.MemoMisses,
	}
	delays := append([]float64(nil), tr.Delays...)
	sort.Float64s(delays)
	pct := func(p float64) float64 { return delays[int(p*float64(len(delays)-1))] }
	res.P50, res.P95 = pct(0.50), pct(0.95)
	for k, c := range clocks {
		res.ShmooClocks = append(res.ShmooClocks, c)
		res.ShmooTER = append(res.ShmooTER, tr.TER(k))
	}
	return res, nil
}
