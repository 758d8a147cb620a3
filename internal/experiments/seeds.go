package experiments

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/par"
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

	// Every (controller, seed) pair is an independent realisation; fan the
	// full grid out across cfg.Workers and reduce per controller afterwards
	// in seed order, so the CI arithmetic sees the same float sequence for
	// any worker count.
	summaries, err := par.MapErr(cfg.Workers, len(names)*nSeeds, func(i int) (metrics.Summary, error) {
		name, s := names[i/nSeeds], i%nSeeds
		opts := cfg.runOpts()
		opts.Seed = cfg.Seed + uint64(s)*1000
		res, err := sim.RunNamed(opts, name)
		if err != nil {
			return metrics.Summary{}, err
		}
		return res.Summary, nil
	})
	if err != nil {
		return Table{}, err
	}
	for ni, name := range names {
		var bips, over, eff []float64
		for s := 0; s < nSeeds; s++ {
			sum := summaries[ni*nSeeds+s]
			bips = append(bips, sum.BIPS())
			over = append(over, sum.OverJ)
			eff = append(eff, sum.EnergyEff())
		}
		t.Rows = append(t.Rows, []string{
			name,
			cell(stats.Mean(bips)), cell(stats.CI95(bips)),
			cell(stats.Mean(over)), cell(stats.CI95(over)),
			cell(stats.Mean(eff)), cell(stats.CI95(eff)),
		})
	}
	return t, nil
}
