package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/core"
	"tevot/internal/runner"
)

func sweepCorners() []cells.Corner {
	return []cells.Corner{{V: 0.81, T: 0}, {V: 0.90, T: 50}, {V: 1.00, T: 100}}
}

// TestFig3RunWithInjectedFaultsLosesNoCells: the ISSUE acceptance
// criterion — a sweep with seeded transient faults injected into ~10% of
// tasks completes with zero lost cells, and its rows are identical to a
// fault-free run.
func TestFig3RunWithInjectedFaultsLosesNoCells(t *testing.T) {
	lab, err := NewLab(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	corners := sweepCorners()
	want, repRef, err := Fig3Run(context.Background(), lab, corners, runner.Config{})
	if err != nil || repRef.Failed != 0 {
		t.Fatalf("reference sweep: %v / %s", err, repRef.Summary())
	}

	// Find a seed whose 10% injection actually selects at least one of
	// this sweep's 9 cells, so the retry path is provably exercised.
	// The scan is deterministic: the same seed wins every run.
	seed := int64(-1)
	for s := int64(0); s < 200; s++ {
		inj := runner.NewFaultInjector(s, 0.10)
		for _, fu := range lab.Scale.fus() {
			for _, ds := range Datasets {
				for _, c := range corners {
					if inj(Fig3CellKey(fu, ds, c), 0) != nil {
						seed = s
					}
				}
			}
		}
		if seed >= 0 {
			break
		}
	}
	if seed < 0 {
		t.Fatal("no seed under 200 injects into this sweep (injector broken?)")
	}

	cfg := runner.Config{
		Retries: 2,
		Backoff: time.Millisecond,
		Seed:    seed,
		Inject:  runner.NewFaultInjector(seed, 0.10),
	}
	got, rep, err := Fig3Run(context.Background(), lab, corners, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 || rep.Skipped != 0 {
		t.Fatalf("cells lost under 10%% fault injection:\n%s", rep.Summary())
	}
	if rep.Retried == 0 {
		t.Fatal("injection fired during seed scan but no retries recorded")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("rows under fault injection differ from fault-free sweep")
	}
}

// TestFig3RunResumeReproducesUninterruptedRun: a sweep that loses cells
// mid-run (simulating a crash: some cells hard-fail, the rest are
// checkpointed) and is then resumed produces rows byte-identical to an
// uninterrupted run, re-executing only the missing cells.
func TestFig3RunResumeReproducesUninterruptedRun(t *testing.T) {
	lab, err := NewLab(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	corners := sweepCorners()
	ckpt := filepath.Join(t.TempDir(), "fig3.ckpt")

	want, _, err := Fig3Run(context.Background(), lab, corners, runner.Config{})
	if err != nil {
		t.Fatal(err)
	}

	// "Interrupted" pass: every sobel cell fails permanently, so only
	// the other cells land in the checkpoint.
	failSobel := func(key string, attempt int) error {
		if strings.Contains(key, DatasetSobel) {
			return errors.New("simulated mid-run crash")
		}
		return nil
	}
	partial, rep1, err := Fig3Run(context.Background(), lab, corners,
		runner.Config{Checkpoint: ckpt, Inject: failSobel})
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Failed != len(corners) || rep1.Succeeded != 2*len(corners) {
		t.Fatalf("unexpected interrupted pass:\n%s", rep1.Summary())
	}
	if len(partial) != 2*len(corners) {
		t.Fatalf("partial rows = %d, want %d", len(partial), 2*len(corners))
	}

	// Resume: checkpointed cells are skipped, failed cells re-run clean.
	got, rep2, err := Fig3Run(context.Background(), lab, corners,
		runner.Config{Checkpoint: ckpt, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Resumed != 2*len(corners) || rep2.Succeeded != len(corners) || rep2.Failed != 0 {
		t.Fatalf("unexpected resume pass:\n%s", rep2.Summary())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("resumed rows differ from uninterrupted sweep")
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if string(wantJSON) != string(gotJSON) {
		t.Fatal("resumed rows not byte-identical to uninterrupted sweep")
	}
}

// TestFig3RunSurvivesBrokenUnit: a cell whose functional unit is broken
// (the kind of condition that used to log.Fatal the whole process) is
// recorded as failed while every other cell completes.
func TestFig3RunSurvivesBrokenUnit(t *testing.T) {
	scale := tinyScale()
	scale.FUs = []circuits.FU{circuits.IntAdd32, circuits.FPAdd32}
	lab, err := NewLab(scale)
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage one unit the way a corrupted build would: no netlist.
	lab.Units[circuits.FPAdd32] = &core.FUnit{FU: circuits.FPAdd32}

	corners := sweepCorners()[:1]
	rows, rep, err := Fig3Run(context.Background(), lab, corners, runner.Config{})
	if err != nil {
		t.Fatal(err)
	}
	wantOK := len(Datasets)          // all IntAdd cells
	if rep.Failed != len(Datasets) { // all FPAdd cells
		t.Fatalf("failed = %d, want %d:\n%s", rep.Failed, len(Datasets), rep.Summary())
	}
	if rep.Succeeded != wantOK || len(rows) != wantOK {
		t.Fatalf("succeeded = %d rows = %d, want %d", rep.Succeeded, len(rows), wantOK)
	}
	for _, r := range rows {
		if r.FU != circuits.IntAdd32 {
			t.Fatalf("row for broken unit leaked: %+v", r)
		}
	}
	// The strict wrapper reports the failures as an error, not a crash.
	if _, err := Fig3(lab, corners); err == nil {
		t.Fatal("Fig3 wrapper swallowed cell failures")
	}
}

// TestTable2RunAndTable3RunReports: the remaining sweeps flow through
// the runner and report per-cell accounting.
func TestTable3RunReportAccounting(t *testing.T) {
	lab, err := NewLab(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	cells3, rep, err := Table3Run(context.Background(), lab, runner.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 1 || rep.Succeeded != 1 {
		t.Fatalf("unexpected report:\n%s", rep.Summary())
	}
	if len(cells3) != len(Datasets)*4 {
		t.Fatalf("cells = %d, want %d", len(cells3), len(Datasets)*4)
	}
	results, rep2, err := Table2Run(context.Background(), lab, runner.Config{})
	if err != nil || rep2.Succeeded != 1 {
		t.Fatalf("table2: %v / %s", err, rep2.Summary())
	}
	if len(results) != 4 {
		t.Fatalf("table2 methods = %d, want 4", len(results))
	}
}

// TestTable3RunShardingInvariant: Table3Run gives each per-FU lane the
// whole machine's shards, and the cells must not depend on the shard
// count. An explicit 4 shards every characterization on any host.
func TestTable3RunShardingInvariant(t *testing.T) {
	scale := tinyScale()
	scale.TrainCycles, scale.TestCycles, scale.AppStreamCap = 300, 200, 300
	scale.FUs = []circuits.FU{circuits.IntAdd32, circuits.FPAdd32}
	run := func(shards int) []Table3Cell {
		s := scale
		s.ShardWorkers = shards
		lab, err := NewLab(s)
		if err != nil {
			t.Fatal(err)
		}
		cells3, rep, err := Table3Run(context.Background(), lab, runner.Config{})
		if err == nil {
			err = rep.Err()
		}
		if err != nil {
			t.Fatal(err)
		}
		return cells3
	}
	one, four := run(1), run(4)
	if len(one) != 2*len(Datasets)*4 {
		t.Fatalf("cells = %d, want %d", len(one), 2*len(Datasets)*4)
	}
	if !reflect.DeepEqual(one, four) {
		t.Fatalf("cells differ between 1 and 4 shards:\n%v\n%v", one, four)
	}
}

// TestFig3SweepNameFingerprint: resuming a checkpoint against a
// differently scaled sweep is refused — the scale is part of the sweep
// identity.
func TestFig3SweepNameFingerprint(t *testing.T) {
	lab, err := NewLab(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "fig3.ckpt")
	corners := sweepCorners()[:1]
	if _, _, err := Fig3Run(context.Background(), lab, corners, runner.Config{Checkpoint: ckpt}); err != nil {
		t.Fatal(err)
	}
	bigger := tinyScale()
	bigger.TestCycles += 100
	lab2, err := NewLab(bigger)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = Fig3Run(context.Background(), lab2, corners, runner.Config{Checkpoint: ckpt, Resume: true})
	if err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Fatalf("scale-mismatched resume accepted: %v", err)
	}
}
