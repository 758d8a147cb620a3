// Scalability: count per-epoch controller work and measure per-decision
// latency as the chip grows from 16 to 1024 cores — the abstract's "two
// orders of magnitude speedup" claim. OD-RL's per-epoch work is one Q-row
// per core; the MaxBIPS knapsack re-solves a power-discretised
// optimisation whose grid widens with the chip budget.
//
//	go run ./examples/scalability
package main

import (
	"fmt"
	"log"

	repro "repro"
)

func main() {
	cfg := repro.DefaultExperimentConfig()
	run, err := repro.ExperimentByID("F5")
	if err != nil {
		log.Fatal(err)
	}
	tbl, err := run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := tbl.WriteTo(logWriter{}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("OD-RL stays linear in core count; the centralized optimiser does not.")
}

// logWriter writes through fmt so the example has no direct os dependency.
type logWriter struct{}

func (logWriter) Write(p []byte) (int, error) {
	fmt.Print(string(p))
	return len(p), nil
}
