package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/manycore"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/vf"
	"repro/internal/workload"
)

// F14Barrier is an extension experiment: a bulk-synchronous (barrier)
// application whose lanes progress by *retired instructions*, with ±20%
// per-lane imbalance. Raw BIPS is a misleading metric here — waiting lanes
// spin — so the table reports true application progress: supersteps per
// second. Slow lanes gate the barrier, which is precisely the structure
// the OD-RL budget-reallocation layer exploits: budget moved to laggards
// buys whole-app progress that equal shares cannot.
func F14Barrier(cfg Config) (Table, error) {
	cfg = cfg.Normalized()
	names := []string{"od-rl", "od-rl-norealloc", "od-rl-ema", "pid", "greedy", "static"}
	if cfg.Quick {
		names = []string{"od-rl", "pid"}
	}

	t := Table{
		ID:     "F14",
		Title:  fmt.Sprintf("barrier-synchronised application at %.0f W (extension)", cfg.BudgetW),
		Header: []string{"controller", "supersteps/s", "mean(W)", "over(J)", "steps/J"},
		Notes: []string{
			"lanes progress by retired instructions; ±20% lane imbalance; slow lanes gate the barrier",
			"supersteps/s is true application progress (BIPS counts barrier spinning)",
			"negative result: the 10ms reallocation cadence lags the ~25ms work/wait oscillation, so",
			"od-rl-norealloc outpaces od-rl here — reallocation helps persistent imbalance (F9), not oscillating",
			"fix: od-rl-ema reallocates against EMA-smoothed power (α=0.05) and recovers most of the gap",
		},
	}

	w, h, err := sim.GridFor(cfg.Cores)
	if err != nil {
		return Table{}, err
	}
	warmupEpochs := int(cfg.WarmupS / 1e-3)
	measureEpochs := int(cfg.MeasureS / 1e-3)

	for _, name := range names {
		base := rng.New(cfg.Seed)
		work := workload.Phase{
			Class: workload.Compute, BaseCPI: 0.85, MPKI: 2.0,
			MemLatencyNs: 75, Activity: 0.9,
		}
		app, err := workload.NewBarrierApp(cfg.Cores, work, 30e6, 0.2, base.Split())
		if err != nil {
			return Table{}, err
		}
		sources := make([]workload.Source, cfg.Cores)
		for i := range sources {
			sources[i] = app.Lane(i)
		}
		mcCfg := manycore.Config{
			Width: w, Height: h,
			VF:                 vf.Default(),
			Power:              power.Default(),
			Thermal:            thermal.Default(),
			ThermalEnabled:     true,
			SensorNoise:        0.02,
			TransitionPenaltyS: 10e-6,
		}
		chip, err := manycore.New(mcCfg, sources, base.Split())
		if err != nil {
			return Table{}, err
		}
		var c ctrl.Controller
		if name == "od-rl-ema" {
			// The churn fix motivated by this experiment: reallocate
			// against EMA-smoothed power rather than the last sample.
			ccfg := core.DefaultConfig()
			ccfg.Seed = cfg.Seed
			ccfg.ReallocEMA = 0.05
			c, err = core.New(cfg.Cores, vf.Default(), power.Default(), ccfg)
			if err != nil {
				return Table{}, err
			}
		} else {
			env := sim.DefaultEnv(cfg.Cores)
			env.Seed = cfg.Seed
			c, err = sim.NewController(name, env)
			if err != nil {
				return Table{}, err
			}
		}

		out := make([]int, cfg.Cores)
		var energy, overJ float64
		stepsStart := 0
		for e := 0; e < warmupEpochs+measureEpochs; e++ {
			if e == warmupEpochs {
				stepsStart = app.Supersteps()
			}
			tel := chip.Step(1e-3)
			c.Decide(&tel, cfg.BudgetW, out)
			for i, l := range out {
				chip.SetLevel(i, l)
			}
			if e >= warmupEpochs {
				energy += tel.TruePowerW * 1e-3
				if tel.TruePowerW > cfg.BudgetW {
					overJ += (tel.TruePowerW - cfg.BudgetW) * 1e-3
				}
			}
		}
		chip.Close()
		release(c)
		steps := float64(app.Supersteps() - stepsStart)
		rate := steps / cfg.MeasureS
		perJ := 0.0
		if energy > 0 {
			perJ = steps / energy
		}
		t.Rows = append(t.Rows, []string{
			name, Cell(rate), Cell(energy / cfg.MeasureS), Cell(overJ), Cell(perJ),
		})
	}
	return t, nil
}
