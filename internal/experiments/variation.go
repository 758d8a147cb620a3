package experiments

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/variation"
)

// F11Variation is an extension experiment beyond the paper's evaluation:
// controller robustness to manufacturing process variation. The die's
// leakage varies ±30% core-to-core (spatially correlated); controllers are
// NOT told — exactly the situation on real silicon. A model-based manager
// (MaxBIPS) predicts per-core power from nominal constants, so on a leaky
// die it systematically under-predicts and overshoots; OD-RL's per-core
// agents learn their own silicon and never had a model to invalidate.
func F11Variation(cfg Config) (Table, error) {
	cfg = cfg.Normalized()
	names := []string{"od-rl", "maxbips", "steepest-drop", "greedy"}
	if cfg.Quick {
		names = []string{"od-rl", "maxbips"}
	}
	sigmas := []float64{0, 0.3, 0.6}
	if cfg.Quick {
		sigmas = []float64{0, 0.6}
	}

	t := Table{
		ID:     "F11",
		Title:  fmt.Sprintf("process-variation robustness at %.0f W (extension)", cfg.BudgetW),
		Header: []string{"leak-sigma"},
		Notes: []string{
			"controllers receive no variation information; telemetry is their only window",
			"telemetry-anchored predictors partly self-correct (observed power already embeds the die's leakage);",
			"the residual misattribution still raises steepest-drop's overshoot with sigma, while od-rl stays at zero",
		},
	}
	for _, n := range names {
		t.Header = append(t.Header, n+" over(J)", n+" BIPS/W")
	}

	for _, sigma := range sigmas {
		row := []string{cell(sigma)}
		for _, name := range names {
			opts := cfg.runOpts()
			if sigma > 0 {
				vp := variation.Default()
				vp.LeakSigma = sigma
				vp.Seed = cfg.Seed
				opts.Variation = &vp
			}
			res, err := sim.RunNamed(opts, name)
			if err != nil {
				return Table{}, err
			}
			row = append(row, cell(res.Summary.OverJ), cell(res.Summary.EnergyEff()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
