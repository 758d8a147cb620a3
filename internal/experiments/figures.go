package experiments

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
)

// F1PowerTrace reproduces the power-trace figure: the chip running under a
// 90 W cap that drops to 60 W mid-run (a datacentre cap event). The table
// reports, per controller, the behaviour around the step: peak power after
// the drop, time to settle back under the cap, and the overshoot integral.
// Controller runs are independent and fan out across cfg.Workers.
func F1PowerTrace(cfg Config) (Table, error) {
	cfg = cfg.Normalized()
	dropAt := cfg.WarmupS + cfg.MeasureS/3

	t := Table{
		ID:    "F1",
		Title: "power trace around a 90→60 W cap event",
		Header: []string{
			"controller", "mean(W)pre", "peak(W)post", "settle(ms)", "over(J)", "over-time(%)",
		},
		Notes: []string{
			fmt.Sprintf("cap drops at t=%.1fs; settle = first sustained return under cap", dropAt),
		},
	}

	jobs := cfg.jobs(1, cfg.Controllers, func(_ int, j *sim.Job) {
		j.BudgetW = 90
		j.BudgetSchedule = []sim.BudgetStep{{AtS: dropAt, BudgetW: 60}}
		j.TracePoints = 2000
	})
	results, err := sim.RunJobs(cfg.Workers, jobs)
	if err != nil {
		return Table{}, err
	}
	for i, res := range results {
		var meanPre, peakPost, settleS float64
		nPre := 0
		settled := false
		for _, p := range res.Trace {
			if p.TimeS < dropAt {
				meanPre += p.PowerW
				nPre++
				continue
			}
			if p.PowerW > peakPost {
				peakPost = p.PowerW
			}
			if !settled && p.PowerW <= p.BudgetW {
				settleS = p.TimeS - dropAt
				settled = true
			}
		}
		if nPre > 0 {
			meanPre /= float64(nPre)
		}
		if !settled {
			settleS = -1 // never settled within the window
		}
		t.Rows = append(t.Rows, []string{
			jobs[i].Controller, Cell(meanPre), Cell(peakPost), Cell(settleS * 1e3),
			Cell(res.Summary.OverJ), Cell(100 * res.Summary.OverTimeFrac()),
		})
	}
	return t, nil
}

// Grid is the (benchmark × controller) run set of one normalised Config:
// the runs F2, F3 and F4 tabulate and claims C1–C3 judge on each seed.
// RunGrid builds it and the reductions only read it, so one grid serves
// them all.
type Grid struct {
	// Config is the normalised configuration the grid ran at.
	Config Config
	// Summaries holds each run's summary by benchmark, then controller.
	Summaries map[string]map[string]metrics.Summary
}

// RunGrid runs every controller on every benchmark through sim.RunJobs,
// fanned out across cfg.Workers goroutines. Each run derives its state
// purely from (cfg.Seed, benchmark, controller), so the grid is identical
// for any worker count.
func RunGrid(cfg Config) (Grid, error) {
	cfg = cfg.Normalized()
	jobs := cfg.jobs(len(cfg.Benchmarks), cfg.Controllers, func(b int, j *sim.Job) {
		j.Workload = cfg.Benchmarks[b]
	})
	results, err := sim.RunJobs(cfg.Workers, jobs)
	if err != nil {
		return Grid{}, err
	}
	out := make(map[string]map[string]metrics.Summary, len(cfg.Benchmarks))
	for i, j := range jobs {
		m := out[j.Workload]
		if m == nil {
			m = make(map[string]metrics.Summary, len(cfg.Controllers))
			out[j.Workload] = m
		}
		m[j.Controller] = results[i].Summary
	}
	return Grid{Config: cfg, Summaries: out}, nil
}

// gridRunner adapts a grid experiment (see ReduceGrids) to the registry's
// Runner: each call runs its own grid per seed.
func gridRunner(id string) Runner {
	return func(cfg Config) (Table, error) {
		t, _, err := ReduceGrids(id, cfg, func(seed uint64) (Grid, error) {
			cfg.Seed = seed
			return RunGrid(cfg)
		})
		return t, err
	}
}

// F2Overshoot reproduces claim C1 from a grid: the budget-overshoot
// integral per benchmark and controller, plus OD-RL's reduction versus the
// worst prediction-based baseline.
func F2Overshoot(g Grid) Table {
	cfg, runs := g.Config, g.Summaries
	t := Table{
		ID:     "F2",
		Title:  fmt.Sprintf("budget overshoot integral (J) at %.0f W", cfg.BudgetW),
		Header: append([]string{"benchmark"}, append(append([]string{}, cfg.Controllers...), "od-rl reduction")...),
		Notes: []string{
			"reduction = 1 − over(od-rl)/over(worst baseline); paper claims up to 98%",
		},
	}
	for _, bench := range cfg.Benchmarks {
		row := []string{bench}
		worst := 0.0
		for _, name := range cfg.Controllers {
			s := runs[bench][name]
			row = append(row, Cell(s.OverJ))
			if name != "od-rl" && s.OverJ > worst {
				worst = s.OverJ
			}
		}
		reduction := 0.0
		if worst > 0 {
			reduction = 1 - runs[bench]["od-rl"].OverJ/worst
		}
		row = append(row, fmt.Sprintf("%.1f%%", 100*reduction))
		t.Rows = append(t.Rows, row)
	}

	// Aggregate row: total overshoot energy across the suite.
	totalRow := []string{"TOTAL"}
	worstTotal, odrlTotal := 0.0, 0.0
	for _, name := range cfg.Controllers {
		sum := 0.0
		for _, bench := range cfg.Benchmarks {
			sum += runs[bench][name].OverJ
		}
		totalRow = append(totalRow, Cell(sum))
		if name == "od-rl" {
			odrlTotal = sum
		} else if sum > worstTotal {
			worstTotal = sum
		}
	}
	reduction := 0.0
	if worstTotal > 0 {
		reduction = 1 - odrlTotal/worstTotal
	}
	totalRow = append(totalRow, fmt.Sprintf("%.1f%%", 100*reduction))
	t.Rows = append(t.Rows, totalRow)
	return t
}

// F3ThroughputPerOverEnergy reproduces claim C2 from a grid: BIPS per
// joule of over-the-budget energy, floored at 1 mJ (one epoch at 1 W),
// plus OD-RL's best ratio over the best baseline.
func F3ThroughputPerOverEnergy(g Grid) Table {
	cfg, runs := g.Config, g.Summaries
	const floorJ = 1e-3
	t := Table{
		ID:     "F3",
		Title:  fmt.Sprintf("throughput per over-budget energy (BIPS/J-over) at %.0f W", cfg.BudgetW),
		Header: append([]string{"benchmark"}, append(append([]string{}, cfg.Controllers...), "vs steepest", "vs pid")...),
		Notes: []string{
			"overshoot energy floored at 1 mJ; paper claims up to 44.3x vs state-of-the-art",
			"ratio columns compare od-rl against the overshooting SOTA baselines; see EXPERIMENTS.md on maxbips",
		},
	}
	ratioAgainst := func(bench, baseline string) string {
		base := runs[bench][baseline].ThroughputPerOverJ(floorJ)
		if base <= 0 {
			return "-"
		}
		return fmt.Sprintf("%.1fx", runs[bench]["od-rl"].ThroughputPerOverJ(floorJ)/base)
	}
	for _, bench := range cfg.Benchmarks {
		row := []string{bench}
		for _, name := range cfg.Controllers {
			row = append(row, Cell(runs[bench][name].ThroughputPerOverJ(floorJ)))
		}
		ratios := []string{"-", "-"}
		if _, ok := runs[bench]["steepest-drop"]; ok {
			ratios[0] = ratioAgainst(bench, "steepest-drop")
		}
		if _, ok := runs[bench]["pid"]; ok {
			ratios[1] = ratioAgainst(bench, "pid")
		}
		row = append(row, ratios[0], ratios[1])
		t.Rows = append(t.Rows, row)
	}
	return t
}

// F4EnergyEfficiency reproduces claim C3 from a grid: BIPS/W per
// benchmark and controller, plus OD-RL's gain over the best
// prediction-based baseline.
func F4EnergyEfficiency(g Grid) Table {
	cfg, runs := g.Config, g.Summaries
	t := Table{
		ID:     "F4",
		Title:  fmt.Sprintf("energy efficiency (BIPS/W) at %.0f W", cfg.BudgetW),
		Header: append([]string{"benchmark"}, append(append([]string{}, cfg.Controllers...), "od-rl gain")...),
		Notes: []string{
			"gain vs best of {maxbips, steepest-drop, pid}; paper claims up to 23% higher",
		},
	}
	for _, bench := range cfg.Benchmarks {
		row := []string{bench}
		bestSOTA := 0.0
		for _, name := range cfg.Controllers {
			v := runs[bench][name].EnergyEff()
			row = append(row, Cell(v))
			if (name == "maxbips" || name == "steepest-drop" || name == "pid") && v > bestSOTA {
				bestSOTA = v
			}
		}
		gain := 0.0
		if bestSOTA > 0 {
			gain = runs[bench]["od-rl"].EnergyEff()/bestSOTA - 1
		}
		row = append(row, fmt.Sprintf("%+.1f%%", 100*gain))
		t.Rows = append(t.Rows, row)
	}

	// Aggregate row: geometric-mean efficiency per controller, and the
	// geomean of the per-benchmark gain factors.
	geoRow := []string{"GEOMEAN"}
	var gainFactors []float64
	for _, bench := range cfg.Benchmarks {
		bestSOTA := 0.0
		for _, name := range []string{"maxbips", "steepest-drop", "pid"} {
			if s, ok := runs[bench][name]; ok && s.EnergyEff() > bestSOTA {
				bestSOTA = s.EnergyEff()
			}
		}
		if bestSOTA > 0 {
			gainFactors = append(gainFactors, runs[bench]["od-rl"].EnergyEff()/bestSOTA)
		}
	}
	for _, name := range cfg.Controllers {
		var effs []float64
		for _, bench := range cfg.Benchmarks {
			if e := runs[bench][name].EnergyEff(); e > 0 {
				effs = append(effs, e)
			}
		}
		if len(effs) > 0 {
			geoRow = append(geoRow, Cell(stats.GeoMean(effs)))
		} else {
			geoRow = append(geoRow, "-")
		}
	}
	if len(gainFactors) > 0 {
		geoRow = append(geoRow, fmt.Sprintf("%+.1f%%", 100*(stats.GeoMean(gainFactors)-1)))
	} else {
		geoRow = append(geoRow, "-")
	}
	t.Rows = append(t.Rows, geoRow)
	return t
}
