package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/rl"
	"repro/internal/sim"
)

// F9Ablation exercises the design choices DESIGN.md calls out: the global
// reallocation layer (on/off) and the overshoot penalty λ. Reallocation
// should buy throughput on imbalanced (mix) workloads; λ trades throughput
// against compliance.
func F9Ablation(cfg Config) (Table, error) {
	cfg = cfg.Normalized()
	t := Table{
		ID:     "F9",
		Title:  fmt.Sprintf("OD-RL ablations at %.0f W (mix workload)", cfg.BudgetW),
		Header: []string{"variant", "BIPS", "mean(W)", "over(J)", "over-time(%)", "BIPS/W"},
	}

	lambdas := []float64{0.5, 1, 2, 8}
	if cfg.Quick {
		lambdas = []float64{0.5}
	}
	opts := cfg.runOpts()
	jobs := make([]sim.Job, 0, len(lambdas)+5)
	// Baseline and no-reallocation variants via the factory.
	for _, name := range []string{"od-rl", "od-rl-norealloc"} {
		jobs = append(jobs, sim.Job{Options: opts, Controller: name})
	}
	// variant adds an OD-RL controller built from a tweaked core config,
	// seeded, sharded and watchdog-armed as the factory's od-rl is.
	variant := func(label string, tweak func(*core.Config)) {
		jobs = append(jobs, sim.Job{Options: opts, Controller: label, Build: func(env sim.Env) (ctrl.Controller, error) {
			c := core.DefaultConfig()
			c.Seed = env.Seed
			c.Workers = env.Workers
			c.WatchdogEpochs = env.WatchdogEpochs
			tweak(&c)
			return core.New(env.Cores, env.VF, env.Power, c)
		}})
	}
	// λ sweep: the overshoot penalty's weight.
	for _, lambda := range lambdas {
		variant(fmt.Sprintf("od-rl λ=%g", lambda), func(c *core.Config) { c.Lambda = lambda })
	}
	// SARSA variant: on-policy learning of the same controller.
	variant("od-rl sarsa", func(c *core.Config) { c.Algorithm = rl.SARSA })
	// EMA-smoothed reallocation (the F14-motivated fix).
	variant("od-rl ema-realloc", func(c *core.Config) { c.ReallocEMA = 0.05 })
	// Tile-coded linear function approximation instead of tables.
	variant("od-rl tile-coding", func(c *core.Config) {
		c.FunctionApprox = true
		c.TraceLambda = 0.7
	})

	// Rows follow the variants in job order, so the table is identical for
	// any worker count.
	results, err := sim.RunJobs(cfg.Workers, jobs)
	if err != nil {
		return Table{}, err
	}
	for i, res := range results {
		s := res.Summary
		t.Rows = append(t.Rows, []string{
			jobs[i].Controller, Cell(s.BIPS()), Cell(s.MeanW), Cell(s.OverJ),
			Cell(100 * s.OverTimeFrac()), Cell(s.EnergyEff()),
		})
	}

	t.Notes = append(t.Notes,
		"norealloc freezes equal per-core budgets; realloc should win BIPS on imbalanced mixes",
		"λ raises compliance at the cost of throughput",
	)
	return t, nil
}
