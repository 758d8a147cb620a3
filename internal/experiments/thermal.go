package experiments

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/thermal"
)

// F10Thermal validates the TDP context: peak core temperature under power
// capping across budget levels, with the leakage–temperature loop closed.
// Capping the chip's power must cap its temperature; the static design
// point gives the conservative reference.
func F10Thermal(cfg Config) (Table, error) {
	cfg = cfg.Normalized()
	budgets := []float64{40, 55, 70, 90, 120}
	if cfg.Quick {
		budgets = []float64{40, 90}
	}
	names := []string{"od-rl", "pid", "static"}
	if cfg.Quick {
		names = []string{"od-rl", "static"}
	}

	t := Table{
		ID:     "F10",
		Title:  "peak temperature under capping (thermal loop closed)",
		Header: []string{"budget(W)"},
		Notes: []string{
			fmt.Sprintf("ambient %.0f K; temperatures in kelvin", thermal.Default().AmbientK),
			"peak temperature must rise monotonically with the cap for budget-tracking controllers",
		},
	}
	for _, n := range names {
		t.Header = append(t.Header, n+" Tmax(K)", n+" mean(W)")
	}

	for _, b := range budgets {
		row := []string{cell(b)}
		for _, name := range names {
			opts := cfg.runOpts()
			opts.BudgetW = b
			res, err := sim.RunNamed(opts, name)
			if err != nil {
				return Table{}, err
			}
			row = append(row, cell(res.Summary.MaxTempK), cell(res.Summary.MeanW))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
