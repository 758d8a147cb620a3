package sim

import "testing"

// TestBudgetMonotonicity is F7's shape as a property: on a noise-free
// 16-core chip, over seeds 1–10, throughput does not fall as the budget
// rises from 15 to 120 W. The budget-driven baselines hold it exactly and
// pid up to rounding; the learners, whose exploration the budget reshapes,
// may lose at most 2% from one budget step to the next.
func TestBudgetMonotonicity(t *testing.T) {
	// Largest relative BIPS drop allowed from one budget to the next.
	tolerance := map[string]float64{
		"static": 0, "maxbips": 0, "steepest-drop": 0, "greedy": 0,
		"pid":   1e-12,
		"od-rl": 0.02, "od-rl-norealloc": 0.02,
	}
	const nSeeds, nBudgets = 10, 11
	names := ControllerNames()
	jobs := make([]Job, 0, nSeeds*nBudgets*len(names))
	for seed := uint64(1); seed <= nSeeds; seed++ {
		for b := 0; b < nBudgets; b++ {
			opts := DefaultOptions()
			opts.Cores = 16
			opts.SensorNoise = 0
			opts.WarmupS, opts.MeasureS = 0.5, 1
			opts.Seed = seed
			opts.BudgetW = 15 + 10.5*float64(b)
			for _, name := range names {
				jobs = append(jobs, Job{Options: opts, Controller: name})
			}
		}
	}
	results, err := RunJobs(0, jobs)
	if err != nil {
		t.Fatal(err)
	}
	worst := map[string]float64{}
	for i := len(names); i < len(jobs); i++ {
		j := &jobs[i]
		if j.BudgetW < jobs[i-len(names)].BudgetW {
			continue // the first budget of the next seed
		}
		lo, hi := results[i-len(names)].Summary.BIPS(), results[i].Summary.BIPS()
		drop := (lo - hi) / lo
		worst[j.Controller] = max(worst[j.Controller], drop)
		tol, ok := tolerance[j.Controller]
		if !ok {
			t.Fatalf("no tolerance for controller %s", j.Controller)
		}
		if drop > tol {
			t.Errorf("%s seed %d: BIPS falls from %.6g at %g W to %.6g at %g W (%.3g%%, allowed %g%%)",
				j.Controller, j.Seed, lo, jobs[i-len(names)].BudgetW, hi, j.BudgetW, 100*drop, 100*tol)
		}
	}
	for _, name := range names {
		t.Logf("%s: worst drop per budget step %.3g%%", name, 100*worst[name])
	}
}
