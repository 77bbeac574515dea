// Command tevot-loadgen drives a running tevot-serve instance with
// open-loop Poisson traffic through a ramp schedule and reports the
// saturation curve: offered vs achieved RPS, outcome mix, and latency
// quantiles per step, as JSON (and optionally CSV). Open-loop means
// arrivals fire on the seeded schedule regardless of how fast the
// server answers — the discipline that exposes real saturation instead
// of the coordinated-omission blind spot of closed-loop clients.
//
// Example A/B (batching on vs off):
//
//	tevot-serve -model m.tevot -addr :8080 -batch 64 &
//	tevot-loadgen -url http://127.0.0.1:8080 -rps 200,500,1000,2000 -step 5s -out on.json
//	tevot-serve -model m.tevot -addr :8080 -batch 1 &
//	tevot-loadgen -url http://127.0.0.1:8080 -rps 200,500,1000,2000 -step 5s -out off.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"tevot/internal/core"
	"tevot/internal/loadgen"
	"tevot/internal/obs"
	"tevot/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tevot-loadgen: ")
	var (
		url      = flag.String("url", "", "target server base URL, e.g. http://127.0.0.1:8080 (required)")
		fu       = flag.String("fu", "", "target one functional unit via /v1/predict/{fu} (default: legacy /v1/predict)")
		pairs    = flag.Int("pairs", 3, "operand pairs per request (pairs-1 predicted cycles)")
		clocks   = flag.String("clocks", "", "comma-separated clock periods in ps each request asks verdicts for")
		voltage  = flag.Float64("voltage", 0.88, "operating-corner supply voltage (V)")
		temp     = flag.Float64("temperature", 50, "operating-corner temperature (°C)")
		seed     = flag.Int64("seed", 1, "arrival-process and operand-stream seed")
		inflight = flag.Int("inflight", 256, "max outstanding requests; arrivals beyond it are counted skipped")
		timeout  = flag.Duration("timeout", 10*time.Second, "per-request client timeout")
		rpsList  = flag.String("rps", "100,250,500,1000", "comma-separated offered-RPS ramp schedule")
		stepDur  = flag.Duration("step", 5*time.Second, "duration of each ramp step")
		settle   = flag.Duration("settle", 0, "exclude each step's first SETTLE of arrivals from the latency and lateness quantiles (outcomes still counted)")
		outPath  = flag.String("out", "", "write the JSON report here (default stdout)")
		csvPath  = flag.String("csv", "", "also write a per-step CSV here")
		p99Bound = flag.Float64("p99-bound", 50, "p99 bound (ms) for the sustained-RPS summary")

		// Server-stack saturation mode: boot the serving stack inside
		// this process and dispatch to it directly, no sockets. On a
		// host where client and server would share cores, the kernel
		// network path (identical in any A/B) dominates per-request
		// cost; this mode puts the handler → coalescer → inference
		// pipeline itself under the ramp.
		inprocModel   = flag.String("inproc-model", "", "run in-process: load this model gob, boot the serving stack internally, dispatch directly (ignores -url)")
		inprocBatch   = flag.Int("inproc-batch", 32, "in-process server batch size (1 = no coalescing)")
		inprocWorkers = flag.Int("inproc-workers", 0, "in-process server worker count (0 = GOMAXPROCS)")
		inprocQueue   = flag.Int("inproc-queue", 256, "in-process server admission queue depth")
	)
	obsFlags := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	var stepIdx atomic.Int64
	progress := func() any {
		return map[string]any{"status": "ramping", "step": stepIdx.Load()}
	}
	run, err := obsFlags.Start("tevot-loadgen", *seed, progress)
	if err != nil {
		log.Fatal(err) // lint:allow-raw-print (before obs.Start; no run manifest yet)
	}
	defer run.Close()

	if *url == "" && *inprocModel == "" {
		run.Fatal("-url is required (start a server with: tevot-serve -model <gob>), or use -inproc-model")
	}
	var steps []loadgen.Step
	for _, part := range strings.Split(*rpsList, ",") {
		rps, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			run.Fatalf("bad -rps entry %q: %v", part, err)
		}
		steps = append(steps, loadgen.Step{RPS: rps, Duration: *stepDur})
	}
	var clks []float64
	if *clocks != "" {
		for _, part := range strings.Split(*clocks, ",") {
			c, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				run.Fatalf("bad -clocks entry %q: %v", part, err)
			}
			clks = append(clks, c)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := loadgen.Config{
		URL: *url, FU: *fu, Pairs: *pairs, Clocks: clks,
		Voltage: *voltage, Temperature: *temp, Seed: *seed,
		MaxInflight: *inflight, Timeout: *timeout, Steps: steps, Settle: *settle,
	}
	if *inprocModel != "" {
		f, err := os.Open(*inprocModel)
		if err != nil {
			run.Fatal(err)
		}
		model, err := core.LoadModel(f)
		f.Close()
		if err != nil {
			run.Fatalf("loading %s: %v", *inprocModel, err)
		}
		srv, err := serve.New(serve.Config{
			Models:     []serve.ModelEntry{{Model: model, Path: *inprocModel}},
			Workers:    *inprocWorkers,
			QueueDepth: *inprocQueue,
			BatchSize:  *inprocBatch,
		})
		if err != nil {
			run.Fatal(err)
		}
		defer srv.Close()
		cfg.URL = "http://inproc"
		cfg.Client = &http.Client{
			Transport: loadgen.HandlerTransport{Handler: srv.Handler()},
		}
		run.Log.Info("in-process serving stack up", "fu", model.FU.String(),
			"batch", *inprocBatch)
	}
	run.Log.Info("ramp starting", "url", *url, "steps", len(steps),
		"step_duration", *stepDur, "pairs", *pairs, "inflight_cap", *inflight)

	// Narrate step progress from a schedule shadow: Run owns the loop.
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(*stepDur)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				stepIdx.Add(1)
			case <-ctx.Done():
				return
			case <-done:
				return
			}
		}
	}()
	rep, err := loadgen.Run(ctx, cfg)
	if err != nil {
		run.Fatal(err)
	}

	for _, s := range rep.Steps {
		run.Log.Info("step done", "offered_rps", s.OfferedRPS,
			"achieved_rps", fmt.Sprintf("%.1f", s.AchievedRPS),
			"ok", s.OK, "shed", s.Shed, "unavailable", s.Unavailable,
			"skipped", s.Skipped,
			"p50_ms", fmt.Sprintf("%.2f", s.P50Ms), "p99_ms", fmt.Sprintf("%.2f", s.P99Ms),
			"late_p99_ms", fmt.Sprintf("%.2f", s.LateP99Ms))
	}
	sustained := rep.MaxSustainedRPS(*p99Bound, 0.01)
	rep.SustainedRPS, rep.P99BoundMs = sustained, *p99Bound
	run.Log.Info("saturation summary",
		"sustained_rps", fmt.Sprintf("%.1f", sustained), "p99_bound_ms", *p99Bound)
	run.Note("saturation", map[string]any{
		"sustained_rps": sustained, "p99_bound_ms": *p99Bound, "steps": len(rep.Steps),
	})

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		run.Fatal(err)
	}
	data = append(data, '\n')
	if *outPath == "" {
		os.Stdout.Write(data) // lint:allow-raw-print (the report IS the output)
	} else if err := os.WriteFile(*outPath, data, 0o644); err != nil {
		run.Fatal(err)
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			run.Fatal(err)
		}
		if err := loadgen.WriteCSV(f, rep); err != nil {
			f.Close()
			run.Fatal(err)
		}
		if err := f.Close(); err != nil {
			run.Fatal(err)
		}
	}
	run.Exit(0)
}
