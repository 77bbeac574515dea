package serve

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/core"
	"tevot/internal/features"
	"tevot/internal/ml"
	"tevot/internal/workload"
)

// TestReloadSwapsValidatedModel: a good gob swaps in, bumps the
// generation, and subsequent predictions use it.
func TestReloadSwapsValidatedModel(t *testing.T) {
	dir := t.TempDir()
	m2, err := trainModel(23) // same FU/dim, different training data
	if err != nil {
		t.Fatal(err)
	}
	path := writeModelFile(t, dir, "v2.tevot", m2)
	s, ts := newTestServer(t, nil)

	resp, err := http.Post(ts.URL+"/admin/reload", "application/json",
		strings.NewReader(`{"path":`+jq(path)+`}`))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d: %s", resp.StatusCode, data)
	}
	if s.Generation() != 2 {
		t.Fatalf("generation = %d, want 2", s.Generation())
	}
	presp, pdata := postPredict(t, ts.URL, validBody(4))
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("predict after reload: %d: %s", presp.StatusCode, pdata)
	}
	var out predictResponse
	if err := json.Unmarshal(pdata, &out); err != nil {
		t.Fatal(err)
	}
	if out.ModelGeneration != 2 {
		t.Errorf("response generation = %d, want 2", out.ModelGeneration)
	}
}

// TestReloadRejectsCorruptAndKeepsServing: truncated and bit-flipped
// gobs — and a dimension-incompatible model — are rejected with 422
// while the old model keeps serving, generation unchanged.
func TestReloadRejectsCorruptAndKeepsServing(t *testing.T) {
	dir := t.TempDir()
	m := trainedModel(t)
	good := writeModelFile(t, dir, "good.tevot", m)
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}

	truncated := dir + "/truncated.tevot"
	if err := os.WriteFile(truncated, raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	garbage := dir + "/garbage.tevot"
	if err := os.WriteFile(garbage, []byte("not a model at all"), 0o644); err != nil {
		t.Fatal(err)
	}

	// A structurally valid model with the wrong feature dimension: the
	// no-history ablation shape must be refused by the dim gate.
	nhCfg := core.DefaultConfig()
	nhCfg.History = false
	nh, err := core.Train(circuits.IntAdd32, trainedTrace(t), nhCfg)
	if err != nil {
		t.Fatal(err)
	}
	nhPath := writeModelFile(t, dir, "nh.tevot", nh)

	s, ts := newTestServer(t, nil)
	for _, bad := range []string{truncated, garbage, nhPath, dir + "/missing.tevot"} {
		resp, err := http.Post(ts.URL+"/admin/reload", "application/json",
			strings.NewReader(`{"path":`+jq(bad)+`}`))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("reload of %s: status %d, want 422: %s", bad, resp.StatusCode, data)
		}
		if e := decodeError(t, data); e.Error.Code != "reload_failed" {
			t.Errorf("reload of %s: code %q", bad, e.Error.Code)
		}
		if s.Generation() != 1 {
			t.Fatalf("failed reload moved the generation to %d", s.Generation())
		}
		// The old model must still serve correctly after every rejection.
		presp, pdata := postPredict(t, ts.URL, validBody(3))
		if presp.StatusCode != http.StatusOK {
			t.Fatalf("predict after rejected reload of %s: %d: %s", bad, presp.StatusCode, pdata)
		}
	}
}

// TestConcurrentPredictDuringReload is the torn-model race: predictions
// hammer the service while models hot-swap underneath them. Every
// response must be a 200 with a generation/delay set from one coherent
// model — run under -race by check.sh, where a torn read would trip.
func TestConcurrentPredictDuringReload(t *testing.T) {
	dir := t.TempDir()
	mA := trainedModel(t)
	mB, err := trainModel(31)
	if err != nil {
		t.Fatal(err)
	}
	paths := []string{
		writeModelFile(t, dir, "a.tevot", mA),
		writeModelFile(t, dir, "b.tevot", mB),
	}
	s, ts := newTestServer(t, func(c *Config) { c.Workers = 4; c.QueueDepth = 64 })

	var stop atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	body := validBody(5)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(body))
				if err != nil {
					errCh <- err
					return
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errCh <- io.ErrUnexpectedEOF
					t.Errorf("predict during reload: %d: %s", resp.StatusCode, data)
					return
				}
				var out predictResponse
				if err := json.Unmarshal(data, &out); err != nil {
					errCh <- err
					return
				}
				if out.ModelGeneration < 1 || len(out.Delays) != 4 {
					t.Errorf("torn response: gen=%d delays=%d", out.ModelGeneration, len(out.Delays))
				}
			}
		}()
	}
	for i := 0; i < 12; i++ {
		if _, err := s.Reload(paths[i%2]); err != nil {
			t.Errorf("reload %d: %v", i, err)
		}
	}
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("predict goroutine failed: %v", err)
	default:
	}
	if got := s.Generation(); got != 13 {
		t.Errorf("generation = %d, want 13 (1 + 12 reloads)", got)
	}
}

// trainedTrace characterizes a small training trace for tests that need
// to train model variants.
func trainedTrace(t *testing.T) []*core.Trace {
	t.Helper()
	u, err := core.NewFUnit(circuits.IntAdd32)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.Characterize(u, cells.Corner{V: 0.88, T: 50}, workload.RandomInt(301, 5), nil)
	if err != nil {
		t.Fatal(err)
	}
	return []*core.Trace{tr}
}

// jq JSON-quotes a path for inline request bodies.
func jq(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// bitSplitModelGob writes a saved INT_ADD model whose one-tree forest
// splits bit feature 3 at thr, built from gob DTOs that mirror core's
// header and ml's forest field by field (all gob matches on).
func bitSplitModelGob(t *testing.T, dir string, thr float64) string {
	t.Helper()
	type nodeDTO struct {
		Feature   int32
		Threshold float64
		Left      int32
		Right     int32
		Value     float64
	}
	type treeDTO struct {
		Cfg        ml.TreeConfig
		Classes    int
		Nodes      []nodeDTO
		Importance []float64
	}
	header := struct {
		Version int
		FU      int
		History bool
	}{1, int(circuits.IntAdd32), true}
	forest := struct {
		Version int
		Cfg     ml.ForestConfig
		Trees   []treeDTO
	}{1, ml.DefaultForestConfig(ml.Regression), []treeDTO{{
		Nodes: []nodeDTO{
			{Feature: 3, Threshold: thr, Left: 1, Right: 2},
			{Feature: -1, Value: 300},
			{Feature: -1, Value: 400},
		},
		Importance: make([]float64, features.Dim),
	}}}
	// A saved model is two gob streams: the header, then the forest.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(header); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(&buf).Encode(forest); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("split-%v.tevot", thr))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReloadRejectsInexactBitSplit: a forest splitting a bit feature at
// 1.5 predicts finite delays over float rows, but the packed rows the
// workers walk would send a set bit the other way; the reload is
// refused 422 and the unit keeps its generation. The same forest split
// at 0.5 loads, so the refusal is the split check, not the gob.
func TestReloadRejectsInexactBitSplit(t *testing.T) {
	dir := t.TempDir()
	f, err := os.Open(bitSplitModelGob(t, dir, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := core.LoadModel(f); err != nil {
		t.Fatalf("the 0.5 split does not load: %v", err)
	}

	s, ts := newTestServer(t, nil)
	resp, err := http.Post(ts.URL+"/admin/reload", "application/json",
		strings.NewReader(`{"path":`+jq(bitSplitModelGob(t, dir, 1.5))+`}`))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", resp.StatusCode, data)
	}
	if e := decodeError(t, data); e.Error.Code != "reload_failed" || !strings.Contains(e.Error.Message, "outside [0, 1)") {
		t.Errorf("error %+v, want reload_failed naming the bit split", e.Error)
	}
	if g := s.units[0].state.Load().generation; g != 1 {
		t.Errorf("refused reload moved the unit to generation %d", g)
	}
}
