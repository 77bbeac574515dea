// Package dist scales the DTA characterization sweep across processes:
// a coordinator leases grid cells to workers over HTTP and survives
// every failure mode short of losing the coordinator's journal.
//
// The design leans entirely on one property: every cell is a
// deterministic function of (Spec, cell key). Work descriptors are
// seed-addressed — a lease carries only the cell's coordinates, and the
// worker regenerates the identical operand stream from the spec's seed
// (no payload shipping). That makes at-least-once execution safe:
//
//   - a worker dies → its lease expires → the cell is re-issued to any
//     other worker, which reproduces the byte-identical result;
//   - a late result races the re-issue → duplicates are accepted only
//     if byte-identical; a mismatch is a determinism violation and
//     aborts the run with a divergence report (silently picking either
//     copy would un-pin every paper-facing output downstream);
//   - the coordinator dies → its journal (the internal/runner
//     checkpoint format, one fsynced JSONL entry per completed cell)
//     resumes the run without re-executing completed cells;
//   - stragglers → bounded speculative re-issue: an idle worker may
//     duplicate the slowest in-flight cell, and whichever copy lands
//     first wins (the loser becomes a byte-checked duplicate).
//
// The merged output is written in canonical grid order, so a
// distributed run's JSONL is byte-identical to the single-process
// sweep's (SingleProcessMerged, tevot-sweep's plain mode) — the
// acceptance bar every mode of this repo is held to.
package dist

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/core"
	"tevot/internal/experiments"
	"tevot/internal/runner"
)

// Spec is the seed-addressed description of one distributed sweep: the
// full cell inventory and every input needed to regenerate any cell's
// operand stream are derived from it deterministically. The coordinator
// publishes it at /v1/spec; workers build their Lab from it and never
// receive operand payloads.
type Spec struct {
	// Cycles sizes the characterization streams (test, train, and the
	// application-stream cap, mirroring tevot-sweep's -cycles flag).
	Cycles int `json:"cycles"`
	// FUs restricts the functional units (empty = all four).
	FUs []string `json:"fus,omitempty"`
	// Corners is the (V, T) grid.
	Corners []cells.Corner `json:"corners"`
	// Images / ImageSize size the synthetic application datasets.
	Images    int `json:"images"`
	ImageSize int `json:"image_size"`
	// Seed drives every stream, jitter, and sampling decision.
	Seed int64 `json:"seed"`
}

// withDefaults fills the cheap-smoke defaults (mirroring tevot-sweep)
// for sizes that would otherwise name an empty sweep. Seed 0 is a seed
// like any other.
func (s Spec) withDefaults() Spec {
	if s.Cycles <= 0 {
		s.Cycles = 1500
	}
	if len(s.Corners) == 0 {
		s.Corners = core.Fig3Corners()
	}
	if s.Images <= 0 {
		s.Images = 3
	}
	if s.ImageSize <= 0 {
		s.ImageSize = 24
	}
	return s
}

// Validate rejects specs that cannot name a runnable grid.
func (s Spec) Validate() error {
	s = s.withDefaults()
	for _, name := range s.FUs {
		if _, err := circuits.ParseFU(name); err != nil {
			return fmt.Errorf("dist: spec: %w", err)
		}
	}
	for i, c := range s.Corners {
		if c.V <= 0 {
			return fmt.Errorf("dist: spec: corner %d has non-positive voltage %v", i, c.V)
		}
	}
	return nil
}

// fus resolves the FU list.
func (s Spec) fus() ([]circuits.FU, error) {
	if len(s.FUs) == 0 {
		return circuits.AllFUs, nil
	}
	out := make([]circuits.FU, len(s.FUs))
	for i, name := range s.FUs {
		fu, err := circuits.ParseFU(name)
		if err != nil {
			return nil, err
		}
		out[i] = fu
	}
	return out, nil
}

// Fingerprint names the sweep for journal headers: any change to the
// grid shape or seed changes the fingerprint, so a journal can never be
// resumed against a differently shaped run (same contract as the
// in-process runner's sweep names).
func (s Spec) Fingerprint() string {
	s = s.withDefaults()
	return fmt.Sprintf("dist-fig3 fus=%d datasets=%d corners=%d cycles=%d images=%dx%d seed=%d",
		len(s.fusOrAll()), len(experiments.Datasets), len(s.Corners), s.Cycles, s.Images, s.ImageSize, s.Seed)
}

func (s Spec) fusOrAll() []string {
	if len(s.FUs) == 0 {
		names := make([]string, len(circuits.AllFUs))
		for i, fu := range circuits.AllFUs {
			names[i] = fu.String()
		}
		return names
	}
	return s.FUs
}

// Cell is one seed-addressed work descriptor: the coordinates of one
// grid cell. It carries no operand data — the worker regenerates the
// stream from (Spec.Seed, FU, Dataset).
type Cell struct {
	FU      string       `json:"fu"`
	Dataset string       `json:"dataset"`
	Corner  cells.Corner `json:"corner"`
}

// Key returns the cell's stable identity, shared with the in-process
// runner's checkpoint keys.
func (c Cell) Key() string {
	fu, err := circuits.ParseFU(c.FU)
	if err != nil {
		return "invalid/" + c.FU
	}
	return experiments.Fig3CellKey(fu, c.Dataset, c.Corner)
}

// Cells enumerates the grid in canonical order — the order the merged
// output is written in, identical to the single-process sweep's row
// order.
func (s Spec) Cells() ([]Cell, error) {
	s = s.withDefaults()
	fus, err := s.fus()
	if err != nil {
		return nil, err
	}
	var out []Cell
	for _, fu := range fus {
		for _, dataset := range experiments.Datasets {
			for _, corner := range s.Corners {
				out = append(out, Cell{FU: fu.String(), Dataset: dataset, Corner: corner})
			}
		}
	}
	return out, nil
}

// Scale maps the spec onto the experiments scale every mode builds its
// lab from, the single-process sweep included, so all modes build
// bit-identical labs.
func (s Spec) Scale() (experiments.Scale, error) {
	s = s.withDefaults()
	fus, err := s.fus()
	if err != nil {
		return experiments.Scale{}, err
	}
	scale := experiments.Small()
	scale.TestCycles = s.Cycles
	scale.TrainCycles = s.Cycles
	scale.AppStreamCap = s.Cycles
	scale.Images = s.Images
	scale.ImageSize = s.ImageSize
	scale.Seed = s.Seed
	if len(s.FUs) > 0 {
		scale.FUs = fus
	}
	return scale, nil
}

// NewLab builds the worker-side lab (units + regenerated application
// streams) for the spec. This is the expensive, once-per-process setup
// the seed-addressed design pays instead of shipping operand payloads.
func (s Spec) NewLab() (*experiments.Lab, error) {
	scale, err := s.Scale()
	if err != nil {
		return nil, err
	}
	return experiments.NewLab(scale)
}

// RunCell executes one cell against a lab built from the same spec,
// returning the row every execution mode computes identically.
func RunCell(ctx context.Context, lab *experiments.Lab, c Cell, opts core.CharacterizeOptions) (experiments.DelayRow, error) {
	fu, err := circuits.ParseFU(c.FU)
	if err != nil {
		return experiments.DelayRow{}, fmt.Errorf("dist: cell %q: %w", c.Key(), err)
	}
	return experiments.Fig3Cell(ctx, lab, fu, c.Dataset, c.Corner, opts)
}

// SingleProcessMerged is tevot-sweep's plain mode: it builds the
// spec's lab, runs experiments.Fig3Run on the runner (no HTTP, no
// leases), and writes the canonical merged JSONL the coordinator writes
// to out ("" skips it).
// Those bytes are the reference distributed runs are compared against.
// As with Fig3Run, failed cells are reported in the Report and left out
// of the rows and the file; an interrupted run writes no file.
func SingleProcessMerged(ctx context.Context, spec Spec, cfg runner.Config, out string) ([]experiments.DelayRow, *runner.Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	spec = spec.withDefaults()
	scale, err := spec.Scale()
	if err != nil {
		return nil, nil, err
	}
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

// HashValue is the content hash workers attach to results and the
// coordinator verifies: SHA-256 over the exact value bytes, hex-encoded.
// Byte-level (not semantic) equality is deliberate — the merged file is
// pinned byte-identical, so the hash must be too.
func HashValue(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// WriteMerged writes the canonical merged result JSONL: one
// {"key":...,"value":...} line per completed cell, in canonical grid
// order. Both the single-process sweep (-out) and the coordinator's
// completion merge go through this one function, which is what makes
// "distributed output byte-identical to single-process output" a
// structural property rather than a hope. Cells missing from results
// (failed cells in a partial single-process run) are skipped.
func WriteMerged(w io.Writer, order []Cell, results map[string]json.RawMessage) error {
	bw := bufio.NewWriter(w)
	for _, c := range order {
		raw, ok := results[c.Key()]
		if !ok {
			continue
		}
		line, err := json.Marshal(struct {
			Key   string          `json:"key"`
			Value json.RawMessage `json:"value"`
		}{Key: c.Key(), Value: raw})
		if err != nil {
			return err
		}
		if _, err := bw.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteMergedFile is WriteMerged to a file via atomic temp+rename, so a
// crash mid-merge never leaves a half-written output.
func WriteMergedFile(path string, order []Cell, results map[string]json.RawMessage) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := WriteMerged(f, order, results); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// MarshalRow serializes a DelayRow exactly as every execution mode
// does, so content hashes agree across processes.
func MarshalRow(row experiments.DelayRow) (json.RawMessage, error) {
	return json.Marshal(row)
}
