package core

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"tevot/internal/circuits"
	"tevot/internal/ml"
)

// modelHeader is the metadata saved ahead of the forest.
type modelHeader struct {
	Version int
	FU      int
	History bool
}

const modelFormatVersion = 1

// maxModelHeaderBytes caps the serialized model header. The header is
// three scalar fields (tens of bytes on the wire); a stream that claims
// more is hostile or corrupt, and the cap keeps LoadModel from feeding
// it to the gob decoder unboundedly. The forest that follows is capped
// separately by ml.MaxForestBytes.
const maxModelHeaderBytes int64 = 64 << 10

// errModelHeaderTooLarge reports a header that ran past the cap.
var errModelHeaderTooLarge = fmt.Errorf("core: model header exceeds the %d KiB size cap", maxModelHeaderBytes>>10)

// Save serializes a trained model (header + random forest) so it can be
// distributed and reloaded without retraining.
func (m *Model) Save(w io.Writer) error {
	if m.forest == nil {
		return fmt.Errorf("core: cannot save an untrained model")
	}
	hdr := modelHeader{Version: modelFormatVersion, FU: int(m.FU), History: m.History}
	if err := gob.NewEncoder(w).Encode(hdr); err != nil {
		return err
	}
	return m.forest.Save(w)
}

// LoadModel reads a model saved with Save. It is safe on untrusted
// bytes: truncated or corrupted input yields an error, never a panic
// (gob panics on some malformed inputs are recovered here), never an
// unbounded hang, and never an unbounded allocation — the header and
// the forest are both decoded under size caps, so a crafted stream
// (e.g. uploaded through tevot-serve's /admin/reload) cannot exhaust
// memory before validation rejects it.
func LoadModel(r io.Reader) (m *Model, err error) {
	defer func() {
		if p := recover(); p != nil {
			m, err = nil, fmt.Errorf("core: corrupt model data: %v", p)
		}
	}()
	var hdr modelHeader
	// The capped reader is scoped to the header decode: gob reads exact
	// counted messages, so the forest decoder picks up cleanly after it.
	if err := gob.NewDecoder(ml.CappedReader(r, maxModelHeaderBytes, errModelHeaderTooLarge)).Decode(&hdr); err != nil {
		if errors.Is(err, errModelHeaderTooLarge) {
			return nil, errModelHeaderTooLarge
		}
		return nil, fmt.Errorf("core: decoding model header: %w", err)
	}
	if hdr.Version != modelFormatVersion {
		return nil, fmt.Errorf("core: unsupported model format version %d", hdr.Version)
	}
	fu := circuits.FU(hdr.FU)
	known := false
	for _, f := range circuits.AllFUs {
		if f == fu {
			known = true
			break
		}
	}
	if !known {
		return nil, fmt.Errorf("core: saved model references unknown FU %d", hdr.FU)
	}
	forest, err := ml.LoadForest(r)
	if err != nil {
		return nil, err
	}
	return newModel(fu, hdr.History, forest)
}
