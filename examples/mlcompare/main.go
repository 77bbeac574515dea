// ML method comparison on one functional unit: the experiment behind
// the paper's Table II and its "we choose RF" design decision. Trains
// linear regression, k-NN, an RBF-kernel SVM, and the random forest on the
// same dynamic-timing data for the FP adder and prints accuracy and
// train/test times.
package main

import (
	"fmt"
	"log"

	"tevot/internal/circuits"
	"tevot/internal/experiments"
)

func main() {
	log.SetFlags(0)

	scale := experiments.Small()
	// The RBF-kernel SVM's O(n²) training is the point of the comparison
	// but also the budget: 2500 cycles keeps this example under a minute.
	scale.TrainCycles = 2500
	scale.TestCycles = 1000
	scale.FUs = []circuits.FU{circuits.FPAdd32}

	lab, err := experiments.NewLab(scale)
	if err != nil {
		log.Fatal(err)
	}
	results, err := experiments.Table2(lab)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("method  accuracy  train-time    test-time")
	var best string
	var bestAcc float64
	for _, r := range results {
		fmt.Printf("%-6s %8.2f%% %12v %12v\n", r.Method, 100*r.Accuracy, r.TrainTime, r.TestTime)
		if r.Accuracy > bestAcc {
			best, bestAcc = r.Method, r.Accuracy
		}
	}
	fmt.Printf("\nbest method: %s — the paper reaches the same conclusion (RFC)\n", best)
	fmt.Println("note the k-NN testing-time blowup: every query scans the training set,")
	fmt.Println("which is why the paper rules it out for online use despite trivial training.")
}
