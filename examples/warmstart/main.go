// Warmstart: train an OD-RL policy, persist it to a file, and boot a fresh
// controller from the saved policy — the deployment path for on-line RL
// control surviving restarts. Prints the first-second behaviour of a cold
// start next to the warm start.
//
//	go run ./examples/warmstart
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/vf"
)

func main() {
	const cores = 32
	const budget = 30.0

	newController := func() *core.Controller {
		cfg := core.DefaultConfig()
		c, err := core.New(cores, vf.Default(), power.Default(), cfg)
		if err != nil {
			log.Fatal(err)
		}
		return c
	}

	// runFromBoot runs a fresh chip under the controller for seconds of
	// simulated time and measures all of them.
	runFromBoot := func(c *core.Controller, seconds float64) metrics.Summary {
		opts := sim.DefaultOptions()
		opts.Cores = cores
		opts.BudgetW = budget
		opts.WarmupS = 0
		opts.MeasureS = seconds
		res, err := sim.Run(opts, c)
		if err != nil {
			log.Fatal(err)
		}
		return res.Summary
	}

	// 1. Train a controller for five simulated seconds.
	trained := newController()
	fmt.Println("training OD-RL for 5 simulated seconds...")
	runFromBoot(trained, 5)

	// 2. Persist the learned policy: one full policy snapshot, the format
	// the run ledger records with -snapshot-every.
	path := filepath.Join(os.TempDir(), "odrl-policy.qsnap")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := trained.SavePolicy(f); err != nil {
		log.Fatal(err)
	}
	f.Close()
	info, _ := os.Stat(path)
	fmt.Printf("saved policy to %s (%d bytes)\n\n", path, info.Size())

	// 3. Compare a cold start against a warm start on identical chips.
	cold := runFromBoot(newController(), 1)

	warm := newController()
	rf, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := warm.LoadPolicy(rf); err != nil {
		log.Fatal(err)
	}
	rf.Close()
	warmRun := runFromBoot(warm, 1)

	fmt.Println("first second after boot (32 cores, 30 W cap):")
	fmt.Printf("  cold start: %6.2f BIPS, %.4f J over budget\n", cold.BIPS(), cold.OverJ)
	fmt.Printf("  warm start: %6.2f BIPS, %.4f J over budget\n", warmRun.BIPS(), warmRun.OverJ)
}
