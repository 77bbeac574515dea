package runner

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"tevot/internal/obs"
)

// Checkpoint / journal file format: one JSON document per line.
//
//	{"format":"tevot-checkpoint","version":1,"sweep":"<name>"}
//	{"key":"fig3/INT_ADD/random_data/v0.810/t0","value":{...}}
//	...
//
// The header pins the sweep identity (name + scale fingerprint) so a
// checkpoint cannot be resumed against a differently sized sweep. One
// entry is appended and fsynced per completed cell, so a killed process
// loses at most the in-flight cells. Only successes are recorded —
// failed cells are re-run on resume (at-least-once delivery per cell).
// Files written before entries lost their "attempts" count still load:
// an entry's unknown fields are ignored.
//
// A kill can land mid-append, leaving a torn final line (partial bytes,
// or a full line missing its terminating newline). Loading detects the
// tear and opening for append truncates the file back to the last
// fully terminated entry before writing anything, so the tear can never
// splice itself onto the next append. The dropped cell simply re-runs —
// safe, because cells are deterministic functions of their key. The same
// Journal backs both the in-process runner checkpoint and the
// distributed coordinator's result journal (internal/dist).

const (
	checkpointFormat  = "tevot-checkpoint"
	checkpointVersion = 1
)

type checkpointHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	Sweep   string `json:"sweep"`
}

// JournalEntry is one completed cell as recorded in the file.
type JournalEntry struct {
	Key   string          `json:"key"`
	Value json.RawMessage `json:"value"`
}

// loadResult carries what a load pass learned about the file.
type loadResult struct {
	done    map[string]json.RawMessage
	entries int
	// goodEnd is the byte offset just past the last fully terminated,
	// parseable line; anything beyond it is a torn tail.
	goodEnd int64
	size    int64
}

// torn reports whether the file ends in a partial write.
func (lr loadResult) torn() bool { return lr.size > lr.goodEnd }

// loadCheckpoint reads entries from path via fsys. A missing file is an
// empty checkpoint, not an error. A torn final line — unparsable bytes,
// or a line missing its terminating newline (both are what an
// interrupted append leaves) — is reported via loadResult.torn, not an
// error; an unparsable line anywhere else is corruption and fails the
// load.
func loadCheckpoint(fsys FS, path, sweep string) (loadResult, error) {
	lr := loadResult{done: map[string]json.RawMessage{}}
	f, err := fsys.Open(path)
	if os.IsNotExist(err) {
		return lr, nil
	}
	if err != nil {
		return lr, err
	}
	defer f.Close()

	r := bufio.NewReaderSize(f, 1<<16)
	lineNo := 0
	var offset int64
	var pendingErr error // a bad line is fatal only if another line follows
	for {
		line, err := r.ReadBytes('\n')
		if len(line) == 0 && err == io.EOF {
			break
		}
		if err != nil && err != io.EOF {
			return lr, err
		}
		terminated := err == nil // ReadBytes returns io.EOF on an unterminated tail
		n := int64(len(line))
		if terminated {
			line = line[:len(line)-1]
		}
		if len(line) == 0 {
			// A blank terminated line is tolerated filler.
			if terminated {
				offset += n
				lr.goodEnd = offset
				continue
			}
			break
		}
		lineNo++
		if pendingErr != nil {
			return lr, pendingErr
		}
		bad := func(msg string) {
			pendingErr = fmt.Errorf("runner: checkpoint %s line %d %s", path, lineNo, msg)
		}
		if lineNo == 1 {
			if !terminated {
				// A torn header means the previous run died before the
				// first entry completed: the file holds nothing
				// recoverable, but it is ours to truncate.
				bad("is a torn header")
				offset += n
				continue
			}
			var hdr checkpointHeader
			if err := json.Unmarshal(line, &hdr); err != nil {
				// A fully written non-header first line is not an
				// interrupted append — this is some other file; refuse
				// to touch it.
				return lr, fmt.Errorf("runner: %s is not a checkpoint file: %w", path, err)
			}
			if hdr.Format != checkpointFormat || hdr.Version != checkpointVersion {
				return lr, fmt.Errorf("runner: %s: unsupported checkpoint format %q version %d", path, hdr.Format, hdr.Version)
			}
			if hdr.Sweep != sweep {
				return lr, fmt.Errorf("runner: checkpoint %s belongs to sweep %q, not %q — refusing to mix results", path, hdr.Sweep, sweep)
			}
			offset += n
			lr.goodEnd = offset
			continue
		}
		var e JournalEntry
		if err := json.Unmarshal(line, &e); err != nil || e.Key == "" || !terminated {
			// Unparsable, or parseable but missing its newline: either
			// way this entry's append never completed. Fatal only if
			// more lines follow (true mid-file corruption).
			bad("is corrupt")
			offset += n
			continue
		}
		offset += n
		lr.goodEnd = offset
		lr.done[e.Key] = e.Value
		lr.entries++
		if err == io.EOF {
			break
		}
	}
	lr.size = offset
	// pendingErr still set here means the bad line was the last one: an
	// interrupted append. The caller truncates it and re-runs that cell.
	return lr, nil
}

// Journal is an append-only JSONL record of completed sweep cells: the
// runner's checkpoint file and the distributed coordinator's result
// journal are the same mechanism. Open with OpenJournal; Record each
// completed cell; a resumed open returns the recovered entries.
//
// A Journal is not safe for concurrent use; both its users call it from
// a single collector goroutine.
type Journal struct {
	f    File
	path string
}

// OpenJournal opens path for a sweep on the real filesystem. See
// OpenJournalFS for the behaviour contract; the variants differ only in
// which FS backs the file.
func OpenJournal(path, sweep string, resume bool) (*Journal, map[string]json.RawMessage, error) {
	return OpenJournalFS(OSFS, path, sweep, resume)
}

// OpenJournalFS opens path for a sweep through fsys. With resume=true it
// first loads the recorded entries (returning them keyed by cell),
// truncates any torn trailing write, and positions for append; with
// resume=false it truncates the file entirely and writes a fresh header.
// The sweep name is pinned in the header: resuming a journal written
// under a different name is refused.
func OpenJournalFS(fsys FS, path, sweep string, resume bool) (*Journal, map[string]json.RawMessage, error) {
	if !resume {
		f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			return nil, nil, err
		}
		if err := writeHeader(f, sweep); err != nil {
			f.Close()
			return nil, nil, err
		}
		return &Journal{f: f, path: path}, map[string]json.RawMessage{}, nil
	}

	lr, err := loadCheckpoint(fsys, path, sweep)
	if err != nil {
		return nil, nil, err
	}
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if lr.torn() {
		// Cut the interrupted append before it can splice onto the next
		// entry; the affected cell is simply re-run.
		if err := f.Truncate(lr.goodEnd); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("runner: truncating torn tail of %s: %w", path, err)
		}
		mCkptTornTails.Inc()
		obs.Logger("runner").Warn("checkpoint ended in a torn write; truncated and will re-run that cell",
			"checkpoint", path, "kept_entries", lr.entries,
			"dropped_bytes", lr.size-lr.goodEnd)
	}
	if _, err := f.Seek(lr.goodEnd, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	if lr.goodEnd == 0 {
		// Empty (or header-torn) file: start it properly.
		if err := writeHeader(f, sweep); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	return &Journal{f: f, path: path}, lr.done, nil
}

func writeHeader(f File, sweep string) error {
	b, err := json.Marshal(checkpointHeader{Format: checkpointFormat, Version: checkpointVersion, Sweep: sweep})
	if err != nil {
		return err
	}
	_, err = f.Write(append(b, '\n'))
	return err
}

// Record appends one completed cell and fsyncs, so the entry survives a
// process kill. Cells cost seconds to hours each; one fsync per cell is
// noise next to that.
func (j *Journal) Record(key string, value json.RawMessage) error {
	b, err := json.Marshal(JournalEntry{Key: key, Value: value})
	if err != nil {
		return err
	}
	if _, err := j.f.Write(append(b, '\n')); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	mCkptFlushes.Inc()
	return nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Close closes the underlying file. Entries are already durable (each
// Record fsyncs), so Close loses nothing.
func (j *Journal) Close() error { return j.f.Close() }
