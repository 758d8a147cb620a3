package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/par"
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

	// odrlVariant builds an OD-RL controller from a tweaked core config,
	// seeded, sharded and watchdog-armed as the factory's od-rl is.
	odrlVariant := func(tweak func(*core.Config)) func(sim.Env) (ctrl.Controller, error) {
		return func(env sim.Env) (ctrl.Controller, error) {
			c := core.DefaultConfig()
			c.Seed = env.Seed
			c.Workers = env.Workers
			c.WatchdogEpochs = env.WatchdogEpochs
			tweak(&c)
			return core.New(env.Cores, env.VF, env.Power, c)
		}
	}

	// Collect every variant into an ordered list first, then fan the
	// independent runs out across cfg.Workers; rows are appended in variant
	// order from index-addressed results, so the table is identical for any
	// worker count.
	type variant struct {
		label string
		build func(sim.Env) (ctrl.Controller, error)
	}
	var variants []variant

	// Baseline and no-reallocation variants via the factory.
	for _, name := range []string{"od-rl", "od-rl-norealloc"} {
		name := name
		variants = append(variants, variant{name, func(env sim.Env) (ctrl.Controller, error) {
			return sim.NewController(name, env)
		}})
	}

	// λ sweep, including λ=0 (no overshoot penalty at all).
	lambdas := []float64{0.5, 1, 2, 8}
	if cfg.Quick {
		lambdas = []float64{0.5}
	}
	for _, lambda := range lambdas {
		lambda := lambda
		variants = append(variants, variant{
			fmt.Sprintf("od-rl λ=%g", lambda),
			odrlVariant(func(c *core.Config) { c.Lambda = lambda }),
		})
	}

	// SARSA variant: on-policy learning of the same controller.
	variants = append(variants, variant{
		"od-rl sarsa",
		odrlVariant(func(c *core.Config) { c.Algorithm = rl.SARSA }),
	})

	// EMA-smoothed reallocation (the F14-motivated fix).
	variants = append(variants, variant{
		"od-rl ema-realloc",
		odrlVariant(func(c *core.Config) { c.ReallocEMA = 0.05 }),
	})

	// Tile-coded linear function approximation instead of tables.
	variants = append(variants, variant{
		"od-rl tile-coding",
		odrlVariant(func(c *core.Config) {
			c.FunctionApprox = true
			c.TraceLambda = 0.7
		}),
	})

	rows, err := par.MapErr(cfg.Workers, len(variants), func(i int) ([]string, error) {
		v := variants[i]
		opts := cfg.runOpts()
		env, err := sim.EnvFor(opts)
		if err != nil {
			return nil, err
		}
		c, err := v.build(env)
		if err != nil {
			return nil, err
		}
		res, err := sim.Run(opts, c)
		release(c)
		if err != nil {
			return nil, err
		}
		s := res.Summary
		return []string{
			v.label, Cell(s.BIPS()), Cell(s.MeanW), Cell(s.OverJ),
			Cell(100 * s.OverTimeFrac()), Cell(s.EnergyEff()),
		}, nil
	})
	if err != nil {
		return Table{}, err
	}
	t.Rows = rows

	t.Notes = append(t.Notes,
		"norealloc freezes equal per-core budgets; realloc should win BIPS on imbalanced mixes",
		"λ raises compliance at the cost of throughput",
	)
	return t, nil
}
