package chaos

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"tevot/internal/obs"
	"tevot/internal/runner"
)

// Disk-plane fault kinds.
const (
	// FaultShortWrite writes only a seeded prefix of the buffer and
	// reports the short count with an error, as a full disk mid-write
	// does.
	FaultShortWrite = "short_write"
	// FaultENOSPC fails the write outright with ENOSPC semantics.
	FaultENOSPC = "enospc"
	// FaultSyncFail makes Sync return an error (data may still be in the
	// page cache — the caller must treat the entry as unpersisted).
	FaultSyncFail = "sync_fail"
	// FaultSyncLie makes Sync return nil WITHOUT marking the bytes
	// durable: a firmware-grade lie. Combined with Crash, this is how a
	// torn tail appears in a journal whose every Record fsyncs.
	FaultSyncLie = "sync_lie"
	// FaultTornWrite writes a seeded prefix of the buffer and reports
	// full success — the write looks fine until a Crash truncates the
	// unsynced remainder mid-record.
	FaultTornWrite = "torn_write"
)

// ErrNoSpace is the injected ENOSPC. It wraps fs.ErrInvalid-free plain
// text on purpose: callers must handle it as an opaque write failure,
// which is exactly how the journal layer treats real ENOSPC.
var ErrNoSpace = errors.New("chaos: no space left on device (injected)")

// ErrSyncFailed is the injected fsync failure.
var ErrSyncFailed = errors.New("chaos: fsync failed (injected)")

// FSRule is one disk-plane fault: on files whose base name matches
// PathGlob (empty = all), the Nth matching operation (N drawn per-op
// from Prob) suffers Kind. MaxFires bounds how often the rule triggers
// (0 = unlimited) so a journal under ENOSPC chaos still finishes.
type FSRule struct {
	// Kind is one of the Fault* constants above.
	Kind string
	// PathGlob matches the file's base name (filepath.Match); empty
	// matches every file.
	PathGlob string
	// Prob is the per-operation firing probability in [0, 1].
	Prob float64
	// MaxFires caps total firings of this rule (0 = unlimited).
	MaxFires int
	// CutAt, for short/torn writes, fixes the kept byte count; < 0 (or
	// >= len) draws a seeded offset in [0, len) per firing. Exhaustive
	// byte-sweep tests pin CutAt; schedules leave it -1.
	CutAt int
}

// FS is the disk plane: a runner.FS that injects write-path faults and
// can simulate a process crash, truncating each tracked file back to
// its last durable byte plus a seeded fragment of the unsynced tail.
// Reads are never faulted — the plane models losing writes, not
// corrupting history (the journal loader's corruption handling has its
// own directed tests).
//
// An FS is safe for concurrent use and implements runner.FS directly,
// so it drops into runner.Config.FS and dist.CoordConfig.FS.
type FS struct {
	seed  int64
	rules []FSRule

	mu    sync.Mutex
	files map[string]*fsFile // tracked open files by path
	// ops counts matching operations per rule for the deterministic
	// decision stream; fires counts firings for MaxFires.
	ops     []uint64
	fires   []int
	crashed bool

	// Injected counts total faults injected, for test assertions.
	injected int
}

// NewFS builds a disk plane over the real filesystem with the given
// seeded rules.
func NewFS(seed int64, rules []FSRule) *FS {
	return &FS{
		seed:  seed,
		rules: rules,
		files: make(map[string]*fsFile),
		ops:   make([]uint64, len(rules)),
		fires: make([]int, len(rules)),
	}
}

// Injected reports how many faults have fired so far.
func (c *FS) Injected() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.injected
}

// Open opens read-only (never faulted, not crash-tracked).
func (c *FS) Open(name string) (runner.File, error) {
	c.mu.Lock()
	crashed := c.crashed
	c.mu.Unlock()
	if crashed {
		return nil, fmt.Errorf("chaos: fs crashed: %w", os.ErrClosed)
	}
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// OpenFile opens for writing through the fault layer; the handle is
// tracked so a Crash can tear its unsynced tail.
func (c *FS) OpenFile(name string, flag int, perm fs.FileMode) (runner.File, error) {
	c.mu.Lock()
	crashed := c.crashed
	c.mu.Unlock()
	if crashed {
		return nil, fmt.Errorf("chaos: fs crashed: %w", os.ErrClosed)
	}
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	cf := &fsFile{fs: c, f: f, path: name, synced: st.Size(), written: st.Size()}
	if flag&os.O_TRUNC != 0 {
		cf.synced, cf.written = 0, 0
	}
	c.mu.Lock()
	c.files[name] = cf
	c.mu.Unlock()
	return cf, nil
}

// Crash simulates the process dying and the machine losing everything
// not durably synced: every tracked file is truncated to its last
// synced offset plus a seeded partial fragment of the unsynced tail
// (modeling the page cache flushing some, but not all, of the pending
// bytes), and all handles are closed. Subsequent opens through this FS
// fail until Reset — a crashed incarnation must not keep writing.
// It returns the per-file kept sizes for logging.
func (c *FS) Crash() map[string]int64 {
	// Set the crashed flag and detach the tracked set first, THEN lock
	// each file: file ops lock file-then-FS (Write → match), so holding
	// c.mu while taking cf.mu would invert the order and deadlock
	// against an in-flight write.
	c.mu.Lock()
	c.crashed = true
	files := make(map[string]*fsFile, len(c.files))
	for path, cf := range c.files {
		files[path] = cf
	}
	c.files = make(map[string]*fsFile)
	c.mu.Unlock()

	kept := make(map[string]int64, len(files))
	for path, cf := range files {
		cf.mu.Lock()
		keep := cf.synced
		if tail := cf.written - cf.synced; tail > 0 {
			// A seeded fraction of the unsynced tail survives — possibly
			// zero bytes and possibly a mid-record cut, never all of it.
			keep += pick(c.seed, -1, path, cf.crashN, tail)
			cf.crashN++
		}
		cf.f.Truncate(keep)
		cf.f.Sync()
		cf.f.Close()
		cf.closed = true
		cf.mu.Unlock()
		kept[path] = keep
	}
	obs.Logger("chaos").Info("fs crash injected", "files", len(kept))
	return kept
}

// Reset clears the crashed state so a resumed incarnation can reopen
// its files through the same plane (rule streams keep advancing — the
// adversary does not restart with the process).
func (c *FS) Reset() {
	c.mu.Lock()
	c.crashed = false
	c.mu.Unlock()
}

// match finds the first rule of the given kinds that fires for this
// operation on path.
func (c *FS) match(path string, kinds ...string) (FSRule, bool) {
	base := filepath.Base(path)
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, r := range c.rules {
		ok := false
		for _, k := range kinds {
			if r.Kind == k {
				ok = true
				break
			}
		}
		if !ok {
			continue
		}
		if r.PathGlob != "" {
			if m, _ := filepath.Match(r.PathGlob, base); !m {
				continue
			}
		}
		n := c.ops[i]
		c.ops[i]++
		if r.MaxFires > 0 && c.fires[i] >= r.MaxFires {
			continue
		}
		if decide(c.seed, i, r.Kind+":"+base, n, r.Prob) {
			c.fires[i]++
			c.injected++
			return r, true
		}
	}
	return FSRule{}, false
}

// CreateTemp, Rename, and Remove make *FS an obs.ManifestFS, so the
// same plane faults the manifest writer's atomic temp+rename dance.
// Temp-file writes go through the usual write rules; Rename can fail
// via an ENOSPC rule matched against the destination name.
func (c *FS) CreateTemp(dir, pattern string) (obs.ManifestFile, error) {
	c.mu.Lock()
	crashed := c.crashed
	c.mu.Unlock()
	if crashed {
		return nil, fmt.Errorf("chaos: fs crashed: %w", os.ErrClosed)
	}
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	cf := &fsFile{fs: c, f: f, path: f.Name()}
	c.mu.Lock()
	c.files[f.Name()] = cf
	c.mu.Unlock()
	return &tempFile{cf}, nil
}

func (c *FS) Rename(oldpath, newpath string) error {
	if r, ok := c.match(newpath, FaultENOSPC); ok && r.Kind == FaultENOSPC {
		return ErrNoSpace
	}
	return os.Rename(oldpath, newpath)
}

func (c *FS) Remove(name string) error { return os.Remove(name) }

// tempFile adapts fsFile to obs.ManifestFile (adds Name).
type tempFile struct{ *fsFile }

func (t *tempFile) Name() string { return t.path }

// fsFile is one tracked write handle.
type fsFile struct {
	fs   *FS
	f    *os.File
	path string

	mu      sync.Mutex
	written int64 // bytes written through this handle (file size)
	synced  int64 // bytes durable as of the last honest Sync
	crashN  uint64
	closed  bool
}

func (f *fsFile) Read(p []byte) (int, error) { return f.f.Read(p) }

func (f *fsFile) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, os.ErrClosed
	}
	if r, ok := f.fs.match(f.path, FaultShortWrite, FaultENOSPC, FaultTornWrite); ok {
		switch r.Kind {
		case FaultENOSPC:
			return 0, ErrNoSpace
		case FaultShortWrite, FaultTornWrite:
			cut := int64(r.CutAt)
			if cut < 0 || cut >= int64(len(p)) {
				// Seeded cut anywhere in [0, len): keyed by the write
				// offset so the nth record of a journal tears at a
				// different byte than the mth.
				cut = pick(f.fs.seed, len(f.fs.rules), f.path, uint64(f.written), int64(len(p)))
			}
			n, err := f.f.Write(p[:cut])
			f.written += int64(n)
			if err != nil {
				return n, err
			}
			if r.Kind == FaultShortWrite {
				return n, ErrNoSpace
			}
			// Torn write: lie about success. The missing tail only
			// becomes observable after a Crash.
			return len(p), nil
		}
	}
	n, err := f.f.Write(p)
	f.written += int64(n)
	return n, err
}

func (f *fsFile) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return os.ErrClosed
	}
	if r, ok := f.fs.match(f.path, FaultSyncFail, FaultSyncLie); ok {
		if r.Kind == FaultSyncFail {
			return ErrSyncFailed
		}
		// Sync lie: report success without advancing the durable mark.
		return nil
	}
	if err := f.f.Sync(); err != nil {
		return err
	}
	f.synced = f.written
	return nil
}

func (f *fsFile) Truncate(size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return os.ErrClosed
	}
	if err := f.f.Truncate(size); err != nil {
		return err
	}
	if f.written > size {
		f.written = size
	}
	if f.synced > size {
		f.synced = size
	}
	return nil
}

func (f *fsFile) Seek(offset int64, whence int) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, os.ErrClosed
	}
	return f.f.Seek(offset, whence)
}

func (f *fsFile) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	f.fs.mu.Lock()
	if f.fs.files[f.path] == f {
		delete(f.fs.files, f.path)
	}
	f.fs.mu.Unlock()
	return f.f.Close()
}
