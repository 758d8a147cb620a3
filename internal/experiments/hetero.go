package experiments

import (
	"fmt"

	"repro/internal/sim"
)

// F17Hetero is an extension experiment: a heterogeneous (big.LITTLE) chip
// under a power cap. Half the cores are wide/power-hungry, half are
// efficient; controllers are not told which is which. A uniform capper
// (PID, static) must pick one level for very different silicon; per-core
// policies can run the little cores fast (cheap) and modulate the big
// ones — this is the thread-mapping-free slice of the Procrustes-style
// heterogeneous power-allocation problem.
func F17Hetero(cfg Config) (Table, error) {
	cfg = cfg.Normalized()
	names := []string{"od-rl", "maxbips", "steepest-drop", "pid", "greedy", "static"}
	if cfg.Quick {
		names = []string{"od-rl", "pid"}
	}

	t := Table{
		ID:     "F17",
		Title:  fmt.Sprintf("heterogeneous big.LITTLE chip at %.0f W (extension)", cfg.BudgetW),
		Header: []string{"controller", "BIPS", "mean(W)", "over(J)", "BIPS/W", "big-lvl", "little-lvl"},
		Notes: []string{
			"half big cores (1.4x IPC, 1.7x Ceff), half little (0.7x IPC, 0.45x Ceff); types hidden",
			"big-lvl / little-lvl: mean final VF level per core class",
		},
	}

	for _, name := range names {
		opts := cfg.runOpts()
		opts.BigLittle = true
		res, err := sim.RunNamed(opts, name)
		if err != nil {
			return Table{}, err
		}

		// Final-level means per class: big cores are the left half of
		// each grid row (mirroring the assignment in sim.NewChip).
		w, _, err := sim.GridFor(cfg.Cores)
		if err != nil {
			return Table{}, err
		}
		var bigSum, littleSum float64
		var bigN, littleN int
		for i, l := range res.FinalLevels {
			if i%w < w/2 {
				bigSum += float64(l)
				bigN++
			} else {
				littleSum += float64(l)
				littleN++
			}
		}
		s := res.Summary
		t.Rows = append(t.Rows, []string{
			name, cell(s.BIPS()), cell(s.MeanW), cell(s.OverJ), cell(s.EnergyEff()),
			cell(bigSum / float64(bigN)), cell(littleSum / float64(littleN)),
		})
	}
	return t, nil
}
