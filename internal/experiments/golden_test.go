package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"tevot/internal/cells"
	"tevot/internal/circuits"
	"tevot/internal/core"
	"tevot/internal/imaging"
	"tevot/internal/inject"
	"tevot/internal/workload"
)

// update rewrites the golden files instead of comparing against them:
//
//	go test -run 'TestFig3ShapeAndPhysics|TestTable2SmallRun|TestTable3SmallRun|TestTable4AndFig4Small|TestDTADigest' ./internal/experiments -update
//
// A golden diff changes a paper-facing number; say why in CHANGES.md.
var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// paperModels is Table III's column order, which every golden follows.
var paperModels = []string{"TEVoT", "Delay-based", "TER-based", "TEVoT-NH"}

// checkGolden compares got with testdata/name byte for byte, or writes
// it there under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (rerun with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from this run's output:\n--- golden\n%s--- got\n%s", path, want, got)
	}
}

// fig3Golden renders Fig. 3 rows one per line: FU, corner, dataset,
// then the mean, max and static delays in picoseconds.
func fig3Golden(rows []DelayRow) []byte {
	var b bytes.Buffer
	for _, r := range rows {
		fmt.Fprintf(&b, "%v v=%v t=%v %s mean %v max %v static %v\n",
			r.FU, r.Corner.V, r.Corner.T, r.Dataset, r.MeanDelay, r.MaxDelay, r.Static)
	}
	return b.Bytes()
}

// table2Golden renders Table II's accuracies one method per line; the
// train and test times are host readings and stay out.
func table2Golden(results []core.MethodResult) []byte {
	var b bytes.Buffer
	for _, r := range results {
		fmt.Fprintf(&b, "%s %v\n", r.Method, r.Accuracy)
	}
	return b.Bytes()
}

// table3Golden renders Table III cells one per line, each accuracy in
// the shortest form that reads back to the same float64.
func table3Golden(cells3 []Table3Cell) []byte {
	var b bytes.Buffer
	for _, c := range cells3 {
		fmt.Fprintf(&b, "%v %s %s %v\n", c.FU, c.Dataset, c.Model, c.Accuracy)
	}
	return b.Bytes()
}

// table4Golden renders Table IV and Fig. 4: each row's accuracies, each
// point's ground-truth and per-model PSNR and verdict, and each Fig. 4
// panel's PSNR.
func table4Golden(rows []Table4Row, fig4 []Fig4Output) []byte {
	var b bytes.Buffer
	for _, row := range rows {
		for _, m := range paperModels {
			fmt.Fprintf(&b, "table4 %v %s %v\n", row.App, m, row.Accuracy[m])
		}
		for _, pt := range row.Points {
			fmt.Fprintf(&b, "point %v v=%v t=%v speedup=%v image=%d truth %v %v",
				row.App, pt.Corner.V, pt.Corner.T, pt.Speedup, pt.Image, pt.TruePSNR, pt.TrueAcceptable)
			for _, m := range paperModels {
				fmt.Fprintf(&b, " | %s %v %v", m, pt.PSNR[m], pt.Acceptable[m])
			}
			b.WriteByte('\n')
		}
	}
	for _, o := range fig4 {
		fmt.Fprintf(&b, "fig4 %s %v\n", o.Model, o.PSNR)
	}
	return b.Bytes()
}

// TestDTADigest pins the gate-level simulator's output per FU: one
// fixed-seed characterization of a random stream on each of the four
// units, plus an INT_MUL Sobel stream on which the memo hits and the
// bitslice windows re-settle, each hashed by dtaDigest. A kernel
// rewrite must leave every line unchanged.
func TestDTADigest(t *testing.T) {
	corner := cells.Corner{V: 0.85, T: 50}
	type dtaCase struct {
		name   string
		fu     circuits.FU
		stream *workload.Stream
	}
	var cases []dtaCase
	for _, fu := range circuits.AllFUs {
		cases = append(cases, dtaCase{"random", fu, workload.Random(fu.IsFloat(), 321, 17)})
	}
	rec := inject.NewRecording(600)
	for _, img := range imaging.SyntheticSet(2, 16, 16) {
		inject.SobelApp.Run(img, rec)
	}
	sobel, err := rec.Stream(circuits.IntMul32)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, dtaCase{"sobel", circuits.IntMul32, sobel})

	var b bytes.Buffer
	for _, c := range cases {
		u, err := core.NewFUnit(c.fu)
		if err != nil {
			t.Fatal(err)
		}
		static, err := u.Static(corner)
		if err != nil {
			t.Fatal(err)
		}
		clocks := []float64{0.5 * static.Delay, 0.7 * static.Delay, 0.9 * static.Delay}
		// One shard: a random stream runs past the memo probe and drops
		// the memo; the Sobel stream keeps it and its windows.
		tr, err := core.CharacterizeOpts(u, corner, c.stream, clocks, core.CharacterizeOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if c.name == "sobel" && (tr.MemoHits == 0 || tr.SliceWindows == 0) {
			t.Fatalf("sobel stream ran %d memo hits and %d windows; the case must exercise both", tr.MemoHits, tr.SliceWindows)
		}
		fmt.Fprintf(&b, "%v %s v=%v t=%v cycles=%d %s\n", c.fu, c.name, corner.V, corner.T, tr.Cycles(), dtaDigest(tr))
	}
	checkGolden(t, "dta_small.golden", b.Bytes())
}

// dtaDigest is a SHA-256 over a trace's delay bits, its event total and
// its error verdicts at each clock, in hex.
func dtaDigest(tr *core.Trace) string {
	h := sha256.New()
	var w [8]byte
	for _, d := range tr.Delays {
		binary.LittleEndian.PutUint64(w[:], math.Float64bits(d))
		h.Write(w[:])
	}
	binary.LittleEndian.PutUint64(w[:], uint64(tr.Events))
	h.Write(w[:])
	for _, errs := range tr.Errors {
		for _, e := range errs {
			if e {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
