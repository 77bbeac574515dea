package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"tevot/internal/core"
)

// update rewrites the golden files instead of comparing against them:
//
//	go test -run 'TestFig3ShapeAndPhysics|TestTable2SmallRun|TestTable3SmallRun|TestTable4AndFig4Small' ./internal/experiments -update
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
