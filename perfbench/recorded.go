package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"tevot/internal/experiments"
)

// recorded.json holds the outputs of untouched code for every input
// variant: the digest of each dta-imaging pass and the Table III
// accuracy of every (FU, dataset, model) cell. The simulator must stay
// bit-identical and the reduced Table III must not move, so a run whose
// outputs differ counts the op as failed. Regenerate, from the
// repository root and only for a change meant to alter outputs, with
//
//	bash perfbench/run.sh --record perfbench/recorded.json
//
//go:embed recorded.json
var recordedJSON []byte

// variant maps a seed onto one of the input sets whose outputs are
// recorded in recorded.json; the same seed always gives the same inputs.
const variants = 16

func variant(seed int64) int { return int(((seed % variants) + variants) % variants) }

type recordedFile struct {
	DTA    map[string]string             `json:"dta-imaging"`
	Table3 map[string]map[string]float64 `json:"table3"`
}

var recorded = func() recordedFile {
	var r recordedFile
	if err := json.Unmarshal(recordedJSON, &r); err != nil {
		panic("perfbench: recorded.json: " + err.Error())
	}
	return r
}()

// recordedDTA returns the recorded pass digest of a variant; tiny
// (smoke-test) inputs have none, and their check is repeat-consistency.
func recordedDTA(v int, tiny bool) string {
	if tiny {
		return ""
	}
	return recorded.DTA[strconv.Itoa(v)]
}

func recordedTable3(v int, tiny bool) map[string]float64 {
	if tiny {
		return nil
	}
	return recorded.Table3[strconv.Itoa(v)]
}

// recordAll recomputes every variant's outputs and writes them to path.
func recordAll(path string) error {
	out := recordedFile{DTA: map[string]string{}, Table3: map[string]map[string]float64{}}
	for v := 0; v < variants; v++ {
		in, _, _, err := dtaSetup(v, false)
		if err != nil {
			return err
		}
		dg, err := dtaPass(in)
		if err != nil {
			return err
		}
		out.DTA[strconv.Itoa(v)] = dg
		lab, err := experiments.NewLab(table3Scale(v, false))
		if err != nil {
			return err
		}
		acc, err := table3Once(lab)
		if err != nil {
			return err
		}
		out.Table3[strconv.Itoa(v)] = acc
		fmt.Fprintf(os.Stderr, "recorded variant %d\n", v)
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
