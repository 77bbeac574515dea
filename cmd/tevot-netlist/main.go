// Command tevot-netlist inspects and exports the gate-level netlists of
// the functional units as every flow simulates them: composition
// statistics, structural Verilog and a Graphviz DOT rendering.
//
// Examples:
//
//	tevot-netlist -fu FP_ADD -stats
//	tevot-netlist -fu INT_MUL -verilog intmul.v
//	tevot-netlist -fu INT_ADD -dot add.dot
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"tevot/internal/circuits"
	"tevot/internal/obs"
	"tevot/internal/verilog"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tevot-netlist: ")
	var (
		fuName  = flag.String("fu", "INT_ADD", "functional unit: INT_ADD, INT_MUL, FP_ADD, FP_MUL")
		stats   = flag.Bool("stats", true, "print composition statistics")
		vPath   = flag.String("verilog", "", "write structural Verilog to this file")
		dotPath = flag.String("dot", "", "write a Graphviz DOT rendering to this file")
	)
	obsFlags := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	run, err := obsFlags.Start("tevot-netlist", 0, nil)
	if err != nil {
		log.Fatal(err) // lint:allow-raw-print (before obs.Start; no run manifest yet)
	}
	defer run.Close()

	fu, err := circuits.ParseFU(*fuName)
	if err != nil {
		run.Fatal(err)
	}
	nl, err := fu.Build()
	if err != nil {
		run.Fatal(err)
	}

	if *stats {
		depth, err := nl.Depth()
		if err != nil {
			run.Fatal(err)
		}
		fmt.Printf("%s: %d gates, %d nets, depth %d, %d inputs, %d outputs\n",
			nl.Name, nl.NumGates(), nl.NumNets(), depth,
			len(nl.PrimaryInputs), len(nl.PrimaryOutputs))
		counts := nl.GateCounts()
		kinds := make([]string, 0, len(counts))
		for k := range counts {
			kinds = append(kinds, k)
		}
		sort.Slice(kinds, func(i, j int) bool { return counts[kinds[i]] > counts[kinds[j]] })
		for _, k := range kinds {
			fmt.Printf("  %-6s %5d\n", k, counts[k])
		}
	}

	if *vPath != "" {
		f, err := os.Create(*vPath)
		if err != nil {
			run.Fatal(err)
		}
		if err := verilog.Write(f, nl); err != nil {
			run.Fatal(err)
		}
		if err := f.Close(); err != nil {
			run.Fatal(err)
		}
		fmt.Printf("wrote Verilog to %s\n", *vPath)
	}

	if *dotPath != "" {
		f, err := os.Create(*dotPath)
		if err != nil {
			run.Fatal(err)
		}
		if err := nl.WriteDOT(f); err != nil {
			run.Fatal(err)
		}
		if err := f.Close(); err != nil {
			run.Fatal(err)
		}
		fmt.Printf("wrote DOT to %s\n", *dotPath)
	}
}
