package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"tevot/internal/experiments"
	"tevot/internal/obs"
	"tevot/internal/runner"
)

// ClusterConfig configures an in-process "local cluster": one
// coordinator plus N worker goroutines over real loopback HTTP. The
// transport, lease protocol, expiry loop, and merge path are exactly
// what separate processes exercise — only process boundaries are
// missing — which makes this the harness for race-detector runs,
// fault drills (kill a worker goroutine, force lease expiry), and the
// byte-identity acceptance check against the single-process sweep.
type ClusterConfig struct {
	Coord CoordConfig
	// Workers is the number of in-process workers (default 2).
	Workers int
	// Worker is the per-worker template; ID and Coordinator are
	// assigned by the cluster, and Lab is shared across all workers
	// (functional units are safe for concurrent characterization).
	// The template's Transport (if any) is shared by every worker.
	Worker WorkerConfig
}

// RunLocalCluster runs the sweep to completion (or abort) and returns
// the coordinator's terminal error. The merged output lands at
// cfg.Coord.Out, byte-identical to a single-process run of the same
// spec.
func RunLocalCluster(ctx context.Context, cfg ClusterConfig) error {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	coord, err := NewCoordinator(cfg.Coord, nil)
	if err != nil {
		return err
	}
	base, stop, err := coord.Start(ctx)
	if err != nil {
		return err
	}
	defer stop()

	lab := cfg.Worker.Lab
	if lab == nil {
		lab, err = cfg.Coord.Spec.NewLab()
		if err != nil {
			return err
		}
	}

	workerErrs := make(chan error, cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		wcfg := cfg.Worker
		wcfg.ID = fmt.Sprintf("local-%d", i)
		wcfg.Coordinator = base
		wcfg.Lab = lab
		go func() { workerErrs <- RunWorker(ctx, wcfg) }()
	}

	alive := cfg.Workers
	var lastWorkerErr error
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-coord.Done():
			// Drain workers: they exit on their next lease poll ("done"
			// on success, 409 on abort). Bound the wait so a wedged
			// worker can't hang the cluster teardown.
			drain := time.NewTimer(30 * time.Second)
			defer drain.Stop()
			for alive > 0 {
				select {
				case <-workerErrs:
					alive--
				case <-drain.C:
					obs.Logger("dist").Warn("cluster teardown timed out waiting for workers", "remaining", alive)
					return coord.Err()
				case <-ctx.Done():
					return ctx.Err()
				}
			}
			return coord.Err()
		case werr := <-workerErrs:
			alive--
			if werr != nil {
				lastWorkerErr = werr
			}
			if alive == 0 {
				// Every worker exited but the sweep isn't done — without
				// external workers joining, it never will be.
				select {
				case <-coord.Done():
					return coord.Err()
				default:
				}
				if lastWorkerErr != nil {
					return fmt.Errorf("dist: all workers exited before completion: %w", lastWorkerErr)
				}
				return fmt.Errorf("dist: all workers exited before completion")
			}
		}
	}
}

// SingleProcessMerged is tevot-sweep's plain mode: it builds the
// spec's lab with memo as the simulator's transition memo, runs
// experiments.Fig3Run on the runner (no HTTP, no leases), and writes the
// canonical merged JSONL the coordinator writes to out ("" skips it).
// Those bytes are the reference distributed runs are compared against.
// As with Fig3Run, failed cells are reported in the Report and left out
// of the rows and the file; an interrupted run writes no file.
func SingleProcessMerged(ctx context.Context, spec Spec, memo experiments.Memo, cfg runner.Config, out string) ([]experiments.DelayRow, *runner.Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	spec = spec.withDefaults()
	scale, err := spec.Scale()
	if err != nil {
		return nil, nil, err
	}
	scale.Memo = memo
	lab, err := experiments.NewLab(scale)
	if err != nil {
		return nil, nil, err
	}
	rows, rep, err := experiments.Fig3Run(ctx, lab, spec.Corners, cfg)
	if err != nil || out == "" {
		return rows, rep, err
	}
	order, err := spec.Cells()
	if err != nil {
		return rows, rep, err
	}
	results := make(map[string]json.RawMessage, len(rows))
	for _, r := range rows {
		raw, err := MarshalRow(r)
		if err != nil {
			return rows, rep, err
		}
		results[experiments.Fig3CellKey(r.FU, r.Dataset, r.Corner)] = raw
	}
	return rows, rep, WriteMergedFile(out, order, results)
}
