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

	results, err := sim.RunJobs(cfg.Workers, cfg.jobs(len(budgets), names, func(b int, j *sim.Job) { j.BudgetW = budgets[b] }))
	if err != nil {
		return Table{}, err
	}
	for bi, b := range budgets {
		row := []string{Cell(b)}
		for _, res := range results[bi*len(names) : (bi+1)*len(names)] {
			row = append(row, Cell(res.Summary.MaxTempK), Cell(res.Summary.MeanW))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
