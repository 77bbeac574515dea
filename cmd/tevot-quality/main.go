// Command tevot-quality runs the application-quality case study (the
// paper's §V.D): it derives per-FU timing-error rates from each error
// model, injects them into the Sobel and Gaussian filters, classifies
// each output as acceptable (PSNR >= 30 dB) or not, and reports each
// model's estimation accuracy against the gate-level-simulation ground
// truth — Table IV. With -outdir it also writes the Fig. 4 panel: the
// ground-truth and per-model Sobel outputs as PNG files. -shards comes
// from the execution block shared with tevot-sweep, -train and -dta
// (cmd/internal/execflags); this study runs off the runner.
//
// Example:
//
//	tevot-quality -images 4 -imgsize 32 -outdir fig4/
package main

import (
	"flag"
	"fmt"
	"image"
	"image/png"
	"log"
	"math"
	"os"
	"path/filepath"
	"strings"

	"tevot/cmd/internal/execflags"
	"tevot/internal/cells"
	"tevot/internal/experiments"
	"tevot/internal/imaging"
	"tevot/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tevot-quality: ")
	var (
		images  = flag.Int("images", 3, "synthetic test images")
		imgSize = flag.Int("imgsize", 24, "image side length")
		cycles  = flag.Int("cycles", 1200, "training cycles per corner")
		nCorner = flag.Int("corners", 2, "operating corners")
		outDir  = flag.String("outdir", "", "write Fig. 4 PNG outputs to this directory")
		seed    = flag.Int64("seed", 1, "global seed")
	)
	ex := execflags.Register(flag.CommandLine, execflags.Sim)
	obsFlags := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	run, err := obsFlags.Start("tevot-quality", *seed, nil)
	if err != nil {
		log.Fatal(err) // lint:allow-raw-print (before obs.Start; no run manifest yet)
	}
	defer run.Close()

	scale := experiments.Small()
	scale.Images = *images
	scale.ImageSize = *imgSize
	scale.TrainCycles = *cycles
	scale.TestCycles = *cycles / 2
	scale.AppStreamCap = *cycles
	scale.Seed = *seed
	scale.ShardWorkers = ex.Shards
	scale.Corners = scale.Corners[:0]
	for i := 0; i < *nCorner; i++ {
		v := 0.81 + 0.19*float64(i)/math.Max(1, float64(*nCorner-1))
		scale.Corners = append(scale.Corners, cells.Corner{V: math.Round(v*100) / 100, T: 25})
	}

	lab, err := experiments.NewLab(scale)
	if err != nil {
		run.Fatal(err)
	}
	rows, _, _, err := experiments.Table4(lab)
	if err != nil {
		run.Fatal(err)
	}

	fmt.Println("Table IV — application quality estimation accuracy")
	fmt.Println("application  TEVoT    Delay-based  TER-based  TEVoT-NH")
	for _, row := range rows {
		fmt.Printf("%-12s %6.1f%% %11.1f%% %9.1f%% %9.1f%%\n",
			row.App,
			100*row.Accuracy["TEVoT"], 100*row.Accuracy["Delay-based"],
			100*row.Accuracy["TER-based"], 100*row.Accuracy["TEVoT-NH"])
	}

	if *outDir == "" {
		return
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		run.Fatal(err)
	}
	outputs, err := experiments.Fig4(lab)
	if err != nil {
		run.Fatal(err)
	}
	fmt.Println("\nFig. 4 — Sobel outputs under injected errors")
	for _, o := range outputs {
		name := strings.ToLower(strings.ReplaceAll(o.Model, " ", "_")) + ".png"
		path := filepath.Join(*outDir, name)
		if err := writePNG(path, o.Image); err != nil {
			run.Fatal(err)
		}
		fmt.Printf("%-14s PSNR %6.1f dB  -> %s\n", o.Model, o.PSNR, path)
	}
}

func writePNG(path string, m *imaging.Image) error {
	img := image.NewGray(image.Rect(0, 0, m.W, m.H))
	copy(img.Pix, m.Pix)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := png.Encode(f, img); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
