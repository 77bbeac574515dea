package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"time"

	"tevot/internal/cells"
	"tevot/internal/core"
	"tevot/internal/ml"
	"tevot/internal/obs"
	"tevot/internal/workload"
)

// Hot-reload: the new gob is decoded into a side buffer (core.LoadModel
// under its size caps), validated against the unit's serving model,
// probed for finite predictions, and only then swapped in atomically.
// Failure at any step leaves the old model serving untouched — a
// corrupt, truncated, or wrong-unit file can cost a 4xx on
// /admin/reload, never an outage. Each functional unit reloads
// independently under its own generation; a flush in progress loaded
// its model state before the swap and finishes on it, so no batch ever
// mixes generations.

// Reload loads, validates, and swaps in the model at path for the
// default unit ("" means the path of its current model). It returns
// the new generation. Concurrent reloads of one unit serialize;
// predicts never block on a reload.
func (s *Server) Reload(path string) (int64, error) {
	return s.reloadUnit(s.units[0], path)
}

// ReloadFU reloads one functional unit's model by FU name.
func (s *Server) ReloadFU(fu, path string) (int64, error) {
	u, ok := s.unitFor(fu)
	if !ok {
		mReloadBad.Inc()
		return 0, fmt.Errorf("serve: no model serves %q; units: %v", fu, s.FUs())
	}
	return s.reloadUnit(u, path)
}

// ReloadAll reloads every unit from its current model path (the SIGHUP
// behavior). Units without a path, or with a rejected candidate, keep
// serving their current model; the first error is returned after every
// unit has been attempted.
func (s *Server) ReloadAll() error {
	var first error
	for _, u := range s.units {
		if _, err := s.reloadUnit(u, ""); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (s *Server) reloadUnit(u *unit, path string) (int64, error) {
	u.reloadMu.Lock()
	defer u.reloadMu.Unlock()
	log := obs.Logger("serve")
	cur := u.state.Load()
	if path == "" {
		path = cur.path
	}
	if path == "" {
		mReloadBad.Inc()
		return 0, fmt.Errorf("serve: no model path to reload %s from", u.fu)
	}
	next, err := loadAndValidate(path, cur.model)
	if err != nil {
		mReloadBad.Inc()
		log.Error("model reload rejected; keeping current model",
			"fu", u.fu, "path", path, "generation", cur.generation, "err", err)
		return 0, err
	}
	st := &modelState{model: next, generation: cur.generation + 1, path: path, loaded: time.Now()}
	u.state.Store(st)
	u.gGen.Set(float64(st.generation))
	if u == s.units[0] {
		gGeneration.Set(float64(st.generation))
	}
	mReloadOK.Inc()
	log.Info("model hot-reloaded", "fu", u.fu, "path", path,
		"generation", st.generation, "dim", next.Dim())
	return st.generation, nil
}

// loadAndValidate decodes the candidate into a side buffer and runs the
// compatibility and sanity gates against the serving model.
func loadAndValidate(path string, serving *core.Model) (*core.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("serve: opening model: %w", err)
	}
	defer f.Close()
	m, err := core.LoadModel(f)
	if err != nil {
		return nil, fmt.Errorf("serve: decoding model: %w", err)
	}
	if m.FU != serving.FU {
		return nil, fmt.Errorf("serve: model is for %v, server is serving %v", m.FU, serving.FU)
	}
	if m.Dim() != serving.Dim() {
		return nil, fmt.Errorf("serve: model dimension %d != serving dimension %d (history mismatch?)", m.Dim(), serving.Dim())
	}
	if err := probeModel(m); err != nil {
		return nil, err
	}
	return m, nil
}

// probeModel runs a deterministic probe batch through the candidate at
// two grid corners and requires every prediction to come back finite —
// the cheap end-to-end proof that the decoded forest actually predicts
// before it is allowed to serve traffic. A panic during the probe is a
// rejection, not a crash.
func probeModel(m *core.Model) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("serve: model probe panicked: %v", p)
		}
	}()
	pairs := workload.Random(m.FU.IsFloat(), 9, 12345).Pairs
	rows := make([]ml.PackedRow, len(pairs)-1)
	delays := make([]float64, len(rows))
	for _, corner := range []cells.Corner{{V: 0.90, T: 25}, {V: 0.72, T: 75}} {
		// The same two calls a flush makes.
		err := m.FillPackedRows(rows, corner, pairs)
		if err == nil {
			err = m.PredictPackedInto(delays, rows)
		}
		if err != nil {
			return fmt.Errorf("serve: model probe at %v failed: %w", corner, err)
		}
		for i, d := range delays {
			if math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
				return fmt.Errorf("serve: model probe at %v predicted delay[%d] = %v", corner, i, d)
			}
		}
	}
	return nil
}

// handleReload is POST /admin/reload with an optional JSON body
// {"path": "...", "fu": "..."}; an empty body reloads the default
// unit's current model path, "fu" targets one unit's shard.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		WriteError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST")
		return
	}
	var body struct {
		Path string `json:"path"`
		FU   string `json:"fu"`
	}
	r.Body = http.MaxBytesReader(w, r.Body, 4096)
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil && !errors.Is(err, io.EOF) {
		WriteError(w, http.StatusBadRequest, "malformed_json", err.Error())
		return
	}
	u := s.units[0]
	if body.FU != "" {
		var ok bool
		if u, ok = s.unitFor(body.FU); !ok {
			mReloadBad.Inc()
			WriteError(w, http.StatusNotFound, "unknown_fu",
				fmt.Sprintf("no model serves %q; units: %v", body.FU, s.FUs()))
			return
		}
	}
	gen, err := s.reloadUnit(u, body.Path)
	if err != nil {
		WriteError(w, http.StatusUnprocessableEntity, "reload_failed", err.Error())
		return
	}
	st := u.state.Load()
	WriteJSON(w, http.StatusOK, map[string]any{
		"status":           "reloaded",
		"fu":               u.fu,
		"model_generation": gen,
		"path":             st.path,
	})
}
