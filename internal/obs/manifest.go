package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// ManifestFS is the slice of filesystem behaviour the manifest writer
// uses for its atomic temp-file + rename dance. It exists so
// fault-injection tests (internal/chaos) can prove a failed write never
// leaves a truncated run.json behind; production always runs on the os
// passthrough.
type ManifestFS interface {
	CreateTemp(dir, pattern string) (ManifestFile, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
}

// ManifestFile is the temp-file handle surface the manifest writer
// needs.
type ManifestFile interface {
	Write(p []byte) (int, error)
	Close() error
	Name() string
}

type osManifestFS struct{}

func (osManifestFS) CreateTemp(dir, pattern string) (ManifestFile, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osManifestFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osManifestFS) Remove(name string) error             { return os.Remove(name) }

// manifestFS holds the active ManifestFS; swapped atomically so a test
// injecting faults does not race the signal-handler manifest flush.
// Boxed because atomic.Value requires one concrete type across stores.
type manifestFSBox struct{ fs ManifestFS }

var manifestFS atomic.Value // manifestFSBox

func init() { manifestFS.Store(manifestFSBox{osManifestFS{}}) }

// SetManifestFS replaces the filesystem behind manifest writes and
// returns a restore function. Test-only; pass nil to reset to the os
// passthrough directly.
func SetManifestFS(fsys ManifestFS) (restore func()) {
	prev := manifestFS.Load().(manifestFSBox)
	if fsys == nil {
		fsys = osManifestFS{}
	}
	manifestFS.Store(manifestFSBox{fsys})
	return func() { manifestFS.Store(prev) }
}

// Manifest is the auditable record of one CLI run, written as run.json
// next to the run's outputs: what was run (command, args, resolved flag
// values, seed, Go version), when, how it ended, and the final metrics
// snapshot, whose stage.<name>.seconds histograms carry the per-stage
// latencies. An operator can reconstruct — days later — which corner
// grid a sweep covered, which cells failed, and where its
// hours went, without having kept the terminal output.
type Manifest struct {
	Command     string            `json:"command"`
	Args        []string          `json:"args"`
	Config      map[string]string `json:"config"`
	Seed        int64             `json:"seed"`
	GoVersion   string            `json:"go_version"`
	Hostname    string            `json:"hostname,omitempty"`
	Pid         int               `json:"pid"`
	Start       time.Time         `json:"start"`
	End         time.Time         `json:"end"`
	DurationSec float64           `json:"duration_sec"`
	ExitCode    int               `json:"exit_code"`
	Interrupted bool              `json:"interrupted,omitempty"`
	DebugAddr   string            `json:"debug_addr,omitempty"`
	CPUProfile  string            `json:"cpu_profile,omitempty"`
	MemProfile  string            `json:"mem_profile,omitempty"`
	// Notes carries per-command extras (e.g. the final sweep report).
	Notes   map[string]any   `json:"notes,omitempty"`
	Metrics RegistrySnapshot `json:"metrics"`
}

// write finalizes the snapshots and writes the manifest atomically
// (temp file + rename), so a crash mid-write cannot leave a truncated
// run.json masquerading as a complete record.
func (m *Manifest) write(path string) error {
	m.End = time.Now()
	m.DurationSec = m.End.Sub(m.Start).Seconds()
	m.Metrics = DefaultSnapshot()

	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: encoding run manifest: %w", err)
	}
	data = append(data, '\n')
	fsys := manifestFS.Load().(manifestFSBox).fs
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, ".run-*.json.tmp")
	if err != nil {
		return fmt.Errorf("obs: writing run manifest: %w", err)
	}
	defer fsys.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("obs: writing run manifest: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("obs: writing run manifest: %w", err)
	}
	if err := fsys.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("obs: writing run manifest: %w", err)
	}
	return nil
}
