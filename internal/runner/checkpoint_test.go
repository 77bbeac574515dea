package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

type cellValue struct {
	Index int
	Mean  float64
	Label string
}

func sweepTasks(n int, executed *atomic.Int32) []Task[cellValue] {
	tasks := make([]Task[cellValue], n)
	for i := 0; i < n; i++ {
		i := i
		tasks[i] = Task[cellValue]{
			Key: fmt.Sprintf("fu/ds/c%03d", i),
			Run: func(ctx context.Context) (cellValue, error) {
				if executed != nil {
					executed.Add(1)
				}
				return cellValue{Index: i, Mean: float64(i) * 1.5, Label: fmt.Sprintf("v%d", i)}, nil
			},
		}
	}
	return tasks
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCheckpointResumeIdentical: a sweep killed mid-run and resumed from
// its checkpoint produces results identical (byte-identical once
// canonically ordered) to an uninterrupted run, and does not re-execute
// completed cells — ISSUE acceptance criterion (c).
func TestCheckpointResumeIdentical(t *testing.T) {
	const n = 30
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "sweep.ckpt")

	// Reference: uninterrupted, checkpoint-free run.
	want, rep, err := Run(context.Background(), Config{Name: "resume-test", Workers: 3}, sweepTasks(n, nil))
	if err != nil || rep.Failed != 0 {
		t.Fatalf("reference run: %v / %s", err, rep.Summary())
	}

	// Interrupted run: cancel after ~10 cells complete.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var completed atomic.Int32
	tasks := make([]Task[cellValue], n)
	copy(tasks, sweepTasks(n, nil))
	for i := range tasks {
		run := tasks[i].Run
		tasks[i].Run = func(ctx context.Context) (cellValue, error) {
			v, err := run(ctx)
			if completed.Add(1) == 10 {
				cancel()
			}
			return v, err
		}
	}
	partial, rep1, err := Run(ctx, Config{Name: "resume-test", Workers: 3, Checkpoint: ckpt}, tasks)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want canceled", err)
	}
	if rep1.Succeeded == 0 || rep1.Skipped == 0 {
		t.Fatalf("interruption not mid-run:\n%s", rep1.Summary())
	}
	for k, v := range partial {
		if !reflect.DeepEqual(v, want[k]) {
			t.Fatalf("partial result %s diverges before resume", k)
		}
	}

	// Resumed run: must skip every checkpointed cell and reproduce the
	// reference exactly.
	var executed atomic.Int32
	got, rep2, err := Run(context.Background(),
		Config{Name: "resume-test", Workers: 3, Checkpoint: ckpt, Resume: true},
		sweepTasks(n, &executed))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Resumed != rep1.Succeeded {
		t.Fatalf("resumed %d cells, checkpoint held %d", rep2.Resumed, rep1.Succeeded)
	}
	if int(executed.Load()) != n-rep1.Succeeded {
		t.Fatalf("re-executed %d cells, want %d", executed.Load(), n-rep1.Succeeded)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("resumed results differ from uninterrupted run")
	}
	// Byte-identical once serialized in canonical (key) order.
	if string(mustJSON(t, canonical(got))) != string(mustJSON(t, canonical(want))) {
		t.Fatal("serialized resumed results not byte-identical")
	}

	// A second resume finds everything done and executes nothing.
	var executed2 atomic.Int32
	again, rep3, err := Run(context.Background(),
		Config{Name: "resume-test", Checkpoint: ckpt, Resume: true},
		sweepTasks(n, &executed2))
	if err != nil || executed2.Load() != 0 || rep3.Resumed != n {
		t.Fatalf("idempotent resume broken: err=%v executed=%d resumed=%d", err, executed2.Load(), rep3.Resumed)
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatal("second resume diverged")
	}
}

// canonical orders a result map by key for byte-comparison.
func canonical(m map[string]cellValue) []cellValue {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	// small n; insertion sort keeps imports minimal
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	out := make([]cellValue, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}

// TestCheckpointToleratesTruncatedTail: a kill mid-append leaves a
// partial final line; resume must drop it and redo just that cell. The
// second input is the same checkpoint in the entry format written before
// entries lost their attempt count ({"key":…,"attempts":1,"value":…}):
// it must resume the same way, to the same results.
func TestCheckpointToleratesTruncatedTail(t *testing.T) {
	want, _, err := Run(context.Background(), Config{Name: "tail"}, sweepTasks(6, nil))
	if err != nil {
		t.Fatal(err)
	}
	for name, format := range map[string]func(string) string{
		"current":       func(s string) string { return s },
		"with-attempts": func(s string) string { return strings.ReplaceAll(s, `,"value":`, `,"attempts":1,"value":`) },
	} {
		t.Run(name, func(t *testing.T) {
			ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
			if _, rep, err := Run(context.Background(), Config{Name: "tail", Checkpoint: ckpt}, sweepTasks(6, nil)); err != nil || rep.Failed != 0 {
				t.Fatalf("seed run: %v", err)
			}
			// Simulate a mid-write kill: chop the file inside the last line.
			trimmed := strings.TrimRight(format(readFile(t, ckpt)), "\n")
			writeFile(t, ckpt, trimmed[:len(trimmed)-7])

			var executed atomic.Int32
			got, rep, err := Run(context.Background(), Config{Name: "tail", Checkpoint: ckpt, Resume: true}, sweepTasks(6, &executed))
			if err != nil {
				t.Fatalf("resume over truncated tail: %v", err)
			}
			if rep.Resumed != 5 || executed.Load() != 1 {
				t.Fatalf("resumed=%d executed=%d, want 5/1:\n%s", rep.Resumed, executed.Load(), rep.Summary())
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("resumed results differ from uninterrupted run")
			}
		})
	}
}

// TestCheckpointTruncatesTornTailBeforeAppend is the crash-mid-write
// hardening contract: the torn final line must be physically truncated
// out of the file before the resumed run appends, so the re-run cell's
// fresh entry cannot splice onto the torn bytes and corrupt two entries
// at once. (Without the truncate, a second resume after the first would
// hit an unparsable mid-file line and refuse the whole checkpoint.)
func TestCheckpointTruncatesTornTailBeforeAppend(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "sweep.ckpt")
	if _, rep, err := Run(context.Background(), Config{Name: "torn", Checkpoint: ckpt}, sweepTasks(6, nil)); err != nil || rep.Failed != 0 {
		t.Fatalf("seed run: %v", err)
	}
	// Crash mid-write: the last entry's line is half-flushed.
	b := readFile(t, ckpt)
	trimmed := strings.TrimRight(b, "\n")
	writeFile(t, ckpt, trimmed[:len(trimmed)-9])

	var executed atomic.Int32
	_, rep, err := Run(context.Background(), Config{Name: "torn", Checkpoint: ckpt, Resume: true}, sweepTasks(6, &executed))
	if err != nil || rep.Resumed != 5 || executed.Load() != 1 {
		t.Fatalf("first resume: err=%v resumed=%d executed=%d", err, rep.Resumed, executed.Load())
	}

	// The file must now be wholly clean: every line parses, and a second
	// resume trusts all 6 entries without re-running anything.
	for i, line := range strings.Split(strings.TrimRight(readFile(t, ckpt), "\n"), "\n") {
		if !json.Valid([]byte(line)) {
			t.Fatalf("line %d still corrupt after torn-tail resume: %q", i+1, line)
		}
	}
	var executed2 atomic.Int32
	_, rep2, err := Run(context.Background(), Config{Name: "torn", Checkpoint: ckpt, Resume: true}, sweepTasks(6, &executed2))
	if err != nil || rep2.Resumed != 6 || executed2.Load() != 0 {
		t.Fatalf("second resume: err=%v resumed=%d executed=%d", err, rep2.Resumed, executed2.Load())
	}
}

// TestCheckpointDropsUnterminatedButParseableTail: an append can flush
// a whole entry minus its newline. The entry parses, but accepting it
// while leaving the file unterminated would concatenate the next append
// onto it. It must count as torn: dropped, truncated, re-run.
func TestCheckpointDropsUnterminatedButParseableTail(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "sweep.ckpt")
	if _, _, err := Run(context.Background(), Config{Name: "noterm", Checkpoint: ckpt}, sweepTasks(4, nil)); err != nil {
		t.Fatal(err)
	}
	writeFile(t, ckpt, strings.TrimRight(readFile(t, ckpt), "\n")) // strip final newline only

	var executed atomic.Int32
	_, rep, err := Run(context.Background(), Config{Name: "noterm", Checkpoint: ckpt, Resume: true}, sweepTasks(4, &executed))
	if err != nil || rep.Resumed != 3 || executed.Load() != 1 {
		t.Fatalf("resume: err=%v resumed=%d executed=%d, want 3/1", err, rep.Resumed, executed.Load())
	}
	if !strings.HasSuffix(readFile(t, ckpt), "\n") {
		t.Fatal("journal still unterminated after resume")
	}
}

// TestCheckpointTornHeaderStartsFresh: a kill during the very first
// write (the header) leaves an unterminated header line; resume must
// treat the file as empty and rebuild it, not refuse it.
func TestCheckpointTornHeaderStartsFresh(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	writeFile(t, ckpt, `{"format":"tevot-chec`) // torn mid-header, no newline
	results, rep, err := Run(context.Background(), Config{Name: "hdr", Checkpoint: ckpt, Resume: true}, sweepTasks(3, nil))
	if err != nil || rep.Resumed != 0 || len(results) != 3 {
		t.Fatalf("torn-header resume: err=%v resumed=%d n=%d", err, rep.Resumed, len(results))
	}
	var executed atomic.Int32
	_, rep2, err := Run(context.Background(), Config{Name: "hdr", Checkpoint: ckpt, Resume: true}, sweepTasks(3, &executed))
	if err != nil || rep2.Resumed != 3 || executed.Load() != 0 {
		t.Fatalf("rebuilt checkpoint unusable: err=%v resumed=%d executed=%d", err, rep2.Resumed, executed.Load())
	}
}

// TestCheckpointRefusesForeignFile: a fully written file that is not a
// checkpoint (terminated non-header first line) must be refused, never
// truncated — it may be the user's data.
func TestCheckpointRefusesForeignFile(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "notes.txt")
	const content = "do not clobber me\n"
	writeFile(t, ckpt, content)
	_, _, err := Run(context.Background(), Config{Name: "foreign", Checkpoint: ckpt, Resume: true}, sweepTasks(2, nil))
	if err == nil || !strings.Contains(err.Error(), "not a checkpoint file") {
		t.Fatalf("foreign file accepted: err=%v", err)
	}
	if readFile(t, ckpt) != content {
		t.Fatal("foreign file was modified")
	}
}

// TestCheckpointRejectsMidFileCorruption: corruption before the tail is
// not an interrupted write and must fail loudly instead of silently
// dropping cells.
func TestCheckpointRejectsMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "sweep.ckpt")
	if _, _, err := Run(context.Background(), Config{Name: "mid", Checkpoint: ckpt}, sweepTasks(5, nil)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(readFile(t, ckpt), "\n"), "\n")
	lines[2] = lines[2][:len(lines[2])-4] // damage a middle entry
	writeFile(t, ckpt, strings.Join(lines, "\n")+"\n")

	if _, _, err := Run(context.Background(), Config{Name: "mid", Checkpoint: ckpt, Resume: true}, sweepTasks(5, nil)); err == nil {
		t.Fatal("mid-file corruption accepted")
	}
}

// TestCheckpointSweepMismatch: resuming a checkpoint from a different
// sweep (name or scale fingerprint) is refused.
func TestCheckpointSweepMismatch(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "sweep.ckpt")
	if _, _, err := Run(context.Background(), Config{Name: "sweep-A", Checkpoint: ckpt}, sweepTasks(3, nil)); err != nil {
		t.Fatal(err)
	}
	_, _, err := Run(context.Background(), Config{Name: "sweep-B", Checkpoint: ckpt, Resume: true}, sweepTasks(3, nil))
	if err == nil || !strings.Contains(err.Error(), "sweep-A") {
		t.Fatalf("mismatched sweep resume: err = %v", err)
	}
}

// TestResumeWithoutFileStartsFresh: -resume with no checkpoint on disk
// is a fresh run, not an error (first run of a long sweep).
func TestResumeWithoutFileStartsFresh(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "none.ckpt")
	results, rep, err := Run(context.Background(), Config{Name: "fresh", Checkpoint: ckpt, Resume: true}, sweepTasks(4, nil))
	if err != nil || rep.Resumed != 0 || len(results) != 4 {
		t.Fatalf("fresh resume: err=%v resumed=%d n=%d", err, rep.Resumed, len(results))
	}
	// And it wrote a usable checkpoint.
	var executed atomic.Int32
	_, rep2, err := Run(context.Background(), Config{Name: "fresh", Checkpoint: ckpt, Resume: true}, sweepTasks(4, &executed))
	if err != nil || rep2.Resumed != 4 || executed.Load() != 0 {
		t.Fatalf("second resume: err=%v resumed=%d executed=%d", err, rep2.Resumed, executed.Load())
	}
}

// TestFailedCellsNotCheckpointed: failures are re-attempted on resume
// (at-least-once), not frozen into the checkpoint.
func TestFailedCellsNotCheckpointed(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "fail.ckpt")
	var attempt atomic.Int32
	flaky := func(ctx context.Context) (cellValue, error) {
		if attempt.Add(1) == 1 {
			return cellValue{}, errors.New("first run fails permanently")
		}
		return cellValue{Index: 99}, nil
	}
	tasks := sweepTasks(3, nil)
	tasks[1].Run = flaky

	_, rep, err := Run(context.Background(), Config{Name: "flaky", Checkpoint: ckpt}, tasks)
	if err != nil || rep.Failed != 1 {
		t.Fatalf("first run: err=%v rep=%s", err, rep.Summary())
	}
	results, rep2, err := Run(context.Background(), Config{Name: "flaky", Checkpoint: ckpt, Resume: true}, tasks)
	if err != nil || rep2.Failed != 0 {
		t.Fatalf("resume: err=%v rep=%s", err, rep2.Summary())
	}
	if rep2.Resumed != 2 || results[tasks[1].Key].Index != 99 {
		t.Fatalf("failed cell not re-attempted on resume:\n%s", rep2.Summary())
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func writeFile(t *testing.T, path, s string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
		t.Fatal(err)
	}
}
