package experiments

import (
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/core"
	"tevot/internal/runner"
	"tevot/internal/workload"
)

func sweepCorners() []cells.Corner {
	return []cells.Corner{{V: 0.81, T: 0}, {V: 0.90, T: 50}, {V: 1.00, T: 100}}
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

	// "Interrupted" pass: the Sobel input is gone, the way a lost input
	// file would leave it, so every sobel cell fails and only the other
	// cells land in the checkpoint.
	sobel := lab.appStreams[DatasetSobel]
	lab.appStreams[DatasetSobel] = map[circuits.FU]*workload.Stream{}
	partial, rep1, err := Fig3Run(context.Background(), lab, corners,
		runner.Config{Checkpoint: ckpt})
	lab.appStreams[DatasetSobel] = sobel
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
// whole machine's shards (CharOpts(1) reads GOMAXPROCS), and the cells
// must not depend on the shard count: GOMAXPROCS 1 and 4 shard every
// characterization 1 and 4 ways on any host.
func TestTable3RunShardingInvariant(t *testing.T) {
	scale := tinyScale()
	scale.TrainCycles, scale.TestCycles, scale.AppStreamCap = 300, 200, 300
	scale.FUs = []circuits.FU{circuits.IntAdd32, circuits.FPAdd32}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	run := func(procs int) []Table3Cell {
		runtime.GOMAXPROCS(procs)
		lab, err := NewLab(scale)
		if err != nil {
			t.Fatal(err)
		}
		if got := lab.CharOpts(1).Workers; got != procs {
			t.Fatalf("GOMAXPROCS %d: CharOpts(1) gives %d shards", procs, got)
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

// TestCharOpts pins the one rule that sizes simulation shards:
// CharOpts(w) is max(1, GOMAXPROCS/w), and 1 for w <= 0 (the runner's
// default pool of GOMAXPROCS cells).
func TestCharOpts(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var lab Lab
	for _, c := range []struct{ procs, cellWorkers, want int }{
		{1, 1, 1}, {1, 4, 1}, {1, 0, 1},
		{4, 1, 4}, {4, 2, 2}, {4, 3, 1}, {4, 8, 1}, {4, 0, 1}, {4, -1, 1},
		{6, 4, 1}, {8, 3, 2},
	} {
		runtime.GOMAXPROCS(c.procs)
		if got := lab.CharOpts(c.cellWorkers); got != (core.CharacterizeOptions{Workers: c.want}) {
			t.Errorf("GOMAXPROCS %d: CharOpts(%d) = %+v, want Workers %d", c.procs, c.cellWorkers, got, c.want)
		}
	}
}

// TestFig3SweepNameFingerprint: resuming a checkpoint against a
// differently scaled sweep is refused — every scale input that changes
// a cell's value is part of the sweep identity.
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
	for name, change := range map[string]func(*Scale){
		"cycles":  func(s *Scale) { s.TestCycles += 100 },
		"images":  func(s *Scale) { s.Images++ },
		"imgsize": func(s *Scale) { s.ImageSize += 8 },
		"appcap":  func(s *Scale) { s.AppStreamCap += 100 },
	} {
		scale := tinyScale()
		change(&scale)
		lab2, err := NewLab(scale)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = Fig3Run(context.Background(), lab2, corners, runner.Config{Checkpoint: ckpt, Resume: true})
		if err == nil || !strings.Contains(err.Error(), "refusing") {
			t.Fatalf("%s: scale-mismatched resume accepted: %v", name, err)
		}
	}
}
