// Exhaustive torn-tail recovery: the final journal record is cut at
// EVERY byte offset (via the chaos disk plane's pinned torn-write
// fault) and the resume path must recover all preceding entries,
// re-run only the torn cell, and leave a journal that appends cleanly.
// Lives in package runner_test because internal/chaos (transitively)
// imports runner.
package runner_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"tevot/internal/chaos"
	"tevot/internal/runner"
)

const tornSweep = "torn-tail-sweep v1"

func tornKey(i int) string { return fmt.Sprintf("cell-%02d", i) }

// tornValue is a row-like cell value. Its length sets how many byte
// offsets the final record has: one subtest, cut-NN, per offset.
func tornValue(i int) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{"row":%d,"mean_ps":%d.5}`, i, 400+i))
}

// seedJournal writes a header plus entries 0..n-1 on the real
// filesystem and returns the path.
func seedJournal(t *testing.T, dir string, name string, n int) string {
	t.Helper()
	path := filepath.Join(dir, name)
	j, _, err := runner.OpenJournal(path, tornSweep, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := j.Record(tornKey(i), tornValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestTornTailRecoveryAtEveryOffset(t *testing.T) {
	const entries = 3 // entries 0..1 durable; entry 2 is the torn one
	dir := t.TempDir()

	// Measure the final record's on-disk length and the durable prefix
	// size from one intact journal.
	intact := seedJournal(t, dir, "intact.jsonl", entries)
	full, err := os.ReadFile(intact)
	if err != nil {
		t.Fatal(err)
	}
	var rec runner.JournalEntry
	rec.Key, rec.Value = tornKey(entries-1), tornValue(entries-1)
	recBytes, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	recLen := len(recBytes) + 1 // + newline
	durable := int64(len(full) - recLen)

	for cut := 0; cut < recLen; cut++ {
		cut := cut
		t.Run(fmt.Sprintf("cut-%02d", cut), func(t *testing.T) {
			// Build a journal whose last append tore after `cut` bytes:
			// write entries 0..n-2 honestly, then append the final record
			// through the chaos plane's pinned torn-write (which keeps the
			// prefix and lies success, exactly what a kill mid-append
			// leaves on disk).
			path := seedJournal(t, dir, fmt.Sprintf("cut%02d.jsonl", cut), entries-1)
			cfs := chaos.NewFS(int64(cut), []chaos.FSRule{
				{Kind: chaos.FaultTornWrite, Prob: 1, MaxFires: 1, CutAt: cut},
			})
			j, done, err := runner.OpenJournalFS(cfs, path, tornSweep, true)
			if err != nil {
				t.Fatalf("chaos open: %v", err)
			}
			if len(done) != entries-1 {
				t.Fatalf("chaos open recovered %d entries, want %d", len(done), entries-1)
			}
			if err := j.Record(tornKey(entries-1), tornValue(entries-1)); err != nil {
				t.Fatalf("torn write must lie success, got %v", err)
			}
			j.Close()
			if st, err := os.Stat(path); err != nil || st.Size() != durable+int64(cut) {
				t.Fatalf("on-disk size = %v (err %v), want %d", st.Size(), err, durable+int64(cut))
			}

			// Resume on the real filesystem: all durable entries recovered,
			// the torn cell absent, and the tear truncated away.
			j2, done2, err := runner.OpenJournal(path, tornSweep, true)
			if err != nil {
				t.Fatalf("resume at cut %d: %v", cut, err)
			}
			if len(done2) != entries-1 {
				t.Fatalf("resume recovered %d entries, want %d", len(done2), entries-1)
			}
			for i := 0; i < entries-1; i++ {
				if string(done2[tornKey(i)]) != string(tornValue(i)) {
					t.Fatalf("entry %d corrupted across tear: %q", i, done2[tornKey(i)])
				}
			}
			if _, ok := done2[tornKey(entries-1)]; ok {
				t.Fatalf("torn cell %q survived a %d-byte tear", tornKey(entries-1), cut)
			}

			// Re-run the torn cell; the journal must now be whole and
			// byte-identical to the intact one.
			if err := j2.Record(tornKey(entries-1), tornValue(entries-1)); err != nil {
				t.Fatalf("re-append after tear: %v", err)
			}
			j2.Close()
			repaired, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(repaired) != string(full) {
				t.Fatalf("repaired journal differs from intact journal:\n%q\nvs\n%q", repaired, full)
			}
		})
	}

	// Control: a full-length final record is not a tear.
	_, done, err := runner.OpenJournal(intact, tornSweep, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != entries {
		t.Fatalf("intact resume recovered %d entries, want %d", len(done), entries)
	}
}
