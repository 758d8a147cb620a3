package experiments

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
)

// F15Seeds is an extension experiment: statistical robustness. Every other
// table reports a single seeded realisation (exactly reproducible); this
// one re-runs the headline comparison over several independent seeds —
// fresh workload realisations, sensor noise and exploration streams — and
// reports mean ± 95% confidence interval, demonstrating the orderings are
// not artifacts of one lucky seed.
func F15Seeds(cfg Config) (Table, error) {
	cfg = cfg.Normalized()
	nSeeds := 5
	names := []string{"od-rl", "maxbips", "pid"}
	if cfg.Quick {
		nSeeds = 2
		names = []string{"od-rl", "pid"}
	}

	t := Table{
		ID:     "F15",
		Title:  fmt.Sprintf("seed robustness over %d seeds at %.0f W (extension)", nSeeds, cfg.BudgetW),
		Header: []string{"controller", "BIPS", "±95%", "over(J)", "±95%", "BIPS/W", "±95%"},
		Notes: []string{
			"each seed is an independent workload/noise/exploration realisation",
			"orderings must hold beyond the CI overlap for the reproduction to be robust",
		},
	}

	// Every (seed, controller) pair is an independent realisation; fan the
	// full grid out across cfg.Workers and reduce per controller afterwards
	// in seed order, so the CI arithmetic sees the same float sequence for
	// any worker count.
	jobs := cfg.jobs(nSeeds, names, func(s int, j *sim.Job) {
		j.Seed = cfg.Seed + uint64(s)*1000
	})
	results, err := sim.RunJobs(cfg.Workers, jobs)
	if err != nil {
		return Table{}, err
	}
	nn := len(names)
	for ni, name := range names {
		var bips, over, eff []float64
		for s := 0; s < nSeeds; s++ {
			sum := results[s*nn+ni].Summary
			bips = append(bips, sum.BIPS())
			over = append(over, sum.OverJ)
			eff = append(eff, sum.EnergyEff())
		}
		t.Rows = append(t.Rows, []string{
			name,
			Cell(stats.Mean(bips)), Cell(stats.CI95(bips)),
			Cell(stats.Mean(over)), Cell(stats.CI95(over)),
			Cell(stats.Mean(eff)), Cell(stats.CI95(eff)),
		})
	}
	return t, nil
}
