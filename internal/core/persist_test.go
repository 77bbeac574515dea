package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/features"
	"tevot/internal/ml"
	"tevot/internal/workload"
)

func TestModelSaveLoadRoundTrip(t *testing.T) {
	u, err := NewFUnit(circuits.IntAdd32)
	if err != nil {
		t.Fatal(err)
	}
	c := cells.Corner{V: 0.88, T: 50}
	s := workload.RandomInt(501, 9)
	tr, err := Characterize(u, c, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Train(circuits.IntAdd32, []*Trace{tr}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// A second fit on the same traces and seed serialises identically.
	again, err := Train(circuits.IntAdd32, []*Trace{tr}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := again.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("two same-seed fits saved different bytes (%d vs %d)", buf.Len(), buf2.Len())
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.FU != m.FU || loaded.History != m.History {
		t.Fatalf("metadata lost: %v/%v vs %v/%v", loaded.FU, loaded.History, m.FU, m.History)
	}
	test := workload.RandomInt(201, 10)
	orig, err := m.PredictDelays(c, test)
	if err != nil {
		t.Fatal(err)
	}
	back, err := loaded.PredictDelays(c, test)
	if err != nil {
		t.Fatal(err)
	}
	for i := range orig {
		if orig[i] != back[i] {
			t.Fatalf("cycle %d: prediction changed after round trip (%v != %v)", i, orig[i], back[i])
		}
	}
}

func TestLoadModelRejectsGarbage(t *testing.T) {
	if _, err := LoadModel(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Fatal("LoadModel accepted garbage")
	}
	if _, err := LoadModel(bytes.NewReader(nil)); err == nil {
		t.Fatal("LoadModel accepted empty input")
	}
}

func TestSaveUntrainedModelFails(t *testing.T) {
	m := &Model{FU: circuits.IntAdd32}
	if err := m.Save(&bytes.Buffer{}); err == nil {
		t.Fatal("Save succeeded on an untrained model")
	}
}

// trainedModelBytes returns a valid serialized model for corruption
// tests.
func trainedModelBytes(t *testing.T) []byte {
	t.Helper()
	u, err := NewFUnit(circuits.IntAdd32)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Characterize(u, cells.Corner{V: 0.88, T: 50}, workload.RandomInt(401, 11), nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Train(circuits.IntAdd32, []*Trace{tr}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadModelCorruptRoundTrip: every truncation of a valid model file
// must load cleanly or fail with an error — never panic, never hang.
// This is the "power cut mid-download" case for distributed pre-trained
// models.
func TestLoadModelCorruptRoundTrip(t *testing.T) {
	valid := trainedModelBytes(t)
	if _, err := LoadModel(bytes.NewReader(valid)); err != nil {
		t.Fatalf("pristine model does not load: %v", err)
	}
	step := len(valid)/97 + 1
	for n := 0; n < len(valid); n += step {
		if _, err := LoadModel(bytes.NewReader(valid[:n])); err == nil {
			t.Fatalf("truncation to %d/%d bytes loaded without error", n, len(valid))
		}
	}
}

// TestLoadModelBitFlips: seeded single- and multi-byte corruptions must
// never panic LoadModel; when a flip happens to load, the model must
// still be safe to use (Predict cannot loop or index out of range).
func TestLoadModelBitFlips(t *testing.T) {
	valid := trainedModelBytes(t)
	rng := rand.New(rand.NewSource(42))
	corrupt := make([]byte, len(valid))
	for trial := 0; trial < 300; trial++ {
		copy(corrupt, valid)
		flips := 1 + rng.Intn(4)
		for f := 0; f < flips; f++ {
			corrupt[rng.Intn(len(corrupt))] ^= byte(1 << rng.Intn(8))
		}
		m, err := LoadModel(bytes.NewReader(corrupt))
		if err != nil || m == nil {
			continue
		}
		// The corruption survived validation: the model must still be
		// structurally usable.
		if _, err := m.PredictDelays(cells.Corner{V: 0.9, T: 25}, workload.RandomInt(32, 5)); err != nil {
			t.Logf("trial %d: corrupted-but-valid model errored on predict: %v", trial, err)
		}
	}
}

// endlessZeros yields zero bytes forever — the body of a crafted gob
// stream whose message header claims an absurd payload.
type endlessZeros struct{}

func (endlessZeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	return len(p), nil
}

// TestLoadModelRejectsOversizedHeader: a stream whose first gob message
// claims a multi-megabyte header (the /admin/reload bomb shape) must be
// rejected at the header size cap instead of being read without bound.
func TestLoadModelRejectsOversizedHeader(t *testing.T) {
	claim := uint32(16 << 20)
	header := []byte{0xFC, byte(claim >> 24), byte(claim >> 16), byte(claim >> 8), byte(claim)}
	_, err := LoadModel(io.MultiReader(bytes.NewReader(header), endlessZeros{}))
	if err == nil {
		t.Fatal("LoadModel accepted an oversized header stream")
	}
	if !errors.Is(err, errModelHeaderTooLarge) {
		t.Fatalf("err = %v, want the header size-cap error", err)
	}
}

// TestLoadModelGarbagePrefix: high-entropy garbage and gob-ish garbage
// both fail cleanly.
func TestLoadModelGarbagePrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(4096)
		junk := make([]byte, n)
		rng.Read(junk)
		if m, err := LoadModel(bytes.NewReader(junk)); err == nil && m != nil {
			t.Fatalf("trial %d: %d random bytes decoded as a model", trial, n)
		}
	}
}

// oneSplitModelGob is a saved model whose one-tree forest splits
// feature 3, a bit feature, at thr. It mirrors the gob DTOs field by
// field, which is all gob matches on.
func oneSplitModelGob(t *testing.T, thr float64) []byte {
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
	type forestDTO struct {
		Version int
		Cfg     ml.ForestConfig
		Trees   []treeDTO
	}
	// Save writes the header and the forest as two gob streams.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(modelHeader{Version: modelFormatVersion, FU: int(circuits.IntAdd32), History: true}); err != nil {
		t.Fatal(err)
	}
	forest := forestDTO{Version: 1, Cfg: ml.DefaultForestConfig(ml.Regression), Trees: []treeDTO{{
		Nodes: []nodeDTO{
			{Feature: 3, Threshold: thr, Left: 1, Right: 2},
			{Feature: -1, Value: 100},
			{Feature: -1, Value: 200},
		},
		Importance: make([]float64, features.Dim),
	}}}
	if err := gob.NewEncoder(&buf).Encode(forest); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadModelRefusesInexactBitSplit: a bit feature split at 1.5 sends
// a set bit left over float rows and right over packed rows, so
// LoadModel refuses the model; the same forest split at 0.5 loads.
func TestLoadModelRefusesInexactBitSplit(t *testing.T) {
	for _, thr := range []float64{1.5, -0.25, 1} {
		_, err := LoadModel(bytes.NewReader(oneSplitModelGob(t, thr)))
		if err == nil || !strings.Contains(err.Error(), "outside [0, 1)") {
			t.Errorf("threshold %v: LoadModel error %v, want a refusal of the bit split", thr, err)
		}
	}
	m, err := LoadModel(bytes.NewReader(oneSplitModelGob(t, 0.5)))
	if err != nil {
		t.Fatal(err)
	}
	cur := workload.OperandPair{A: 1 << 3}
	if d := m.PredictDelay(cells.Corner{V: 0.9, T: 25}, cur, cur); d != 200 {
		t.Errorf("bit 3 set predicts %v, want the right leaf's 200", d)
	}
}
