package obs

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// A run that dies mid-stage (panic unwinding through
// `defer run.Close()`) must still write a manifest carrying the final
// metrics snapshot, with the stage spans that ended before the crash —
// the same sync.Once guarantee profiles already have.
func TestManifestCarriesPartialSpansOnPanic(t *testing.T) {
	resetLogging(t)
	dir := t.TempDir()
	manifest := filepath.Join(dir, "run.json")
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := RegisterFlags(fs)
	if err := fs.Parse([]string{"-run-json", manifest, "-log-level", "error"}); err != nil {
		t.Fatal(err)
	}
	run, err := f.Start("obstest", 11, nil)
	if err != nil {
		t.Fatal(err)
	}

	func() {
		defer run.Close() // the CLI-side defer that must not be skipped
		defer func() { recover() }()

		Time("exit_test.done")()
		// Mid-stage: this span is open, never ended.
		_ = Time("exit_test.open")
		NewCounter("exit_test.cycles").Add(777)
		panic("simulated mid-stage crash")
	}()

	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatalf("manifest not written on panic exit: %v", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest not JSON: %v\n%s", err, data)
	}
	if m.Metrics.Counters["exit_test.cycles"] != 777 {
		t.Errorf("final metrics snapshot missing: %v", m.Metrics.Counters)
	}
	if h := m.Metrics.Histograms["stage.exit_test.done.seconds"]; h.Count != 1 {
		t.Errorf("stage ended before the crash: count %d in the manifest, want 1", h.Count)
	}
	if h := m.Metrics.Histograms["stage.exit_test.open.seconds"]; h.Count != 0 {
		t.Errorf("stage open at the crash: count %d in the manifest, want 0", h.Count)
	}
}
