// Command tevot-serve is the hardened online prediction service: it
// loads one or more trained model gobs (tevot-train -savemodels) and
// serves per-cycle delay and timing-error predictions over HTTP with
// the failure modes of a production predictor handled explicitly —
// request coalescing into shared inference batches, per-FU model
// sharding, admission control with load shedding, per-request
// deadlines, panic isolation, graceful drain on SIGINT/SIGTERM, and
// validated model hot-reload on SIGHUP or POST /admin/reload.
//
// Endpoints:
//
//	GET  /healthz            liveness
//	GET  /readyz             readiness (503 once draining)
//	GET  /metrics            Prometheus exposition
//	POST /v1/predict         {"voltage","temperature","pairs","clocks"}
//	POST /v1/predict/{fu}    same, routed to one functional unit's shard
//	POST /admin/reload       {"path","fu"} (both optional)
//
// Example:
//
//	tevot-train -fu INT_ADD -savemodels models
//	tevot-serve -model models/INT_ADD.tevot -model models/INT_MUL.tevot -addr :8080
//	curl -s localhost:8080/v1/predict/INT_MUL -d '{"voltage":0.9,"temperature":25,
//	  "pairs":[{"a":1,"b":2},{"a":3,"b":4}],"clocks":[700]}'
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"tevot/internal/core"
	"tevot/internal/obs"
	"tevot/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tevot-serve: ")
	var modelPaths []string
	flag.Func("model", "trained model gob from tevot-train -savemodels (repeatable: one shard per functional unit; the first is the default /v1/predict unit)", func(v string) error {
		modelPaths = append(modelPaths, v)
		return nil
	})
	var (
		addr      = flag.String("addr", ":8080", "listen address (\":0\" picks a port)")
		workers   = flag.Int("workers", 0, "total inference worker count, spread across units (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 64, "per-unit admission queue depth; a full unit sheds with 429")
		batchSize = flag.Int("batch", 32, "coalesce up to this many requests into one inference batch (1 = no coalescing)")
		batchRows = flag.Int("batch-rows", 8192, "cap a batch at this many predicted cycles")
		reqTO     = flag.Duration("req-timeout", 5*time.Second, "server-side per-request deadline; expiry answers 503")
		drainTO   = flag.Duration("drain-timeout", 15*time.Second, "graceful-drain deadline on SIGINT/SIGTERM")
		maxBody   = flag.Int64("max-body", 8<<20, "request body cap in bytes; larger bodies answer 413")
		maxPairs  = flag.Int("max-pairs", 4097, "operand pairs per request cap")
		auditN    = flag.Int("audit-cycles", 0, "simulate this many cycles at startup and report model-vs-ground-truth RMSE per unit (0 = off)")
		memoSet   = flag.String("memo", "on", "transition memo cache for the startup audit: on, off, or an entry cap")
	)
	obsFlags := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	// The /progress payload source outlives server construction, so it
	// indirects through a pointer installed once serve.New succeeds.
	var srvPtr atomic.Pointer[serve.Server]
	progress := func() any {
		if s := srvPtr.Load(); s != nil {
			return s.Progress()
		}
		return map[string]any{"status": "starting"}
	}
	run, err := obsFlags.Start("tevot-serve", 0, progress)
	if err != nil {
		log.Fatal(err) // lint:allow-raw-print (before obs.Start; no run manifest yet)
	}
	defer run.Close()

	if len(modelPaths) == 0 {
		run.Fatal("-model is required (train one with: tevot-train -savemodels <dir>)")
	}
	var entries []serve.ModelEntry
	for _, p := range modelPaths {
		f, err := os.Open(p)
		if err != nil {
			run.Fatal(err)
		}
		model, err := core.LoadModel(f)
		f.Close()
		if err != nil {
			run.Fatalf("loading %s: %v", p, err)
		}
		entries = append(entries, serve.ModelEntry{Model: model, Path: p})
	}

	if *auditN > 0 {
		memo, err := core.ParseMemoSetting(*memoSet)
		if err != nil {
			run.Fatal(err)
		}
		for _, e := range entries {
			rep, err := serve.Audit(context.Background(), e.Model, serve.AuditConfig{
				Cycles: *auditN, Seed: 1, MemoOff: memo.MemoOff, MemoSize: memo.MemoSize,
			})
			if err != nil {
				run.Fatal(err)
			}
			run.Note("startup audit "+e.Model.FU.String(), rep)
		}
	}

	s, err := serve.New(serve.Config{
		Addr:           *addr,
		Models:         entries,
		Workers:        *workers,
		QueueDepth:     *queue,
		BatchSize:      *batchSize,
		MaxBatchRows:   *batchRows,
		RequestTimeout: *reqTO,
		DrainTimeout:   *drainTO,
		MaxBodyBytes:   *maxBody,
		MaxPairs:       *maxPairs,
	})
	if err != nil {
		run.Fatal(err)
	}
	srvPtr.Store(s)

	// SIGINT/SIGTERM start the graceful drain; SIGHUP hot-reloads every
	// unit's model from its path through the same validated path as
	// /admin/reload.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			if err := s.ReloadAll(); err != nil {
				run.Log.Error("SIGHUP reload rejected; still serving the old model(s)", "err", err)
			} else {
				run.Log.Info("SIGHUP reload complete", "generation", s.Generation())
			}
		}
	}()

	err = s.ListenAndServe(ctx)
	run.Note("serving", s.Progress())
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			// In-flight requests outlived the drain deadline and were cut;
			// the manifest records the run as interrupted rather than clean.
			run.SetInterrupted()
			run.Log.Warn("drain forced after deadline")
			run.Exit(1)
		}
		run.Fatal(err)
	}
	run.Exit(0)
}
