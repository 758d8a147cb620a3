package experiments

import (
	"fmt"
	"strings"

	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
)

// claimCheck is the verdict on one of the abstract's quantitative claims
// for one seed's grid.
type claimCheck struct {
	id       string // C1..C4
	claim    string // the paper's wording
	measured string // what this seed produced
	// tested holds the numbers the verdict tests, in the units format
	// prints them with.
	tested []float64
	format string
	pass   bool
}

// judgeClaims judges the four headline claims on one grid: C1–C3 from the
// grid's runs, C4 from counted controller work at the grid's config.
// "Pass" means the *shape* holds (who wins, by roughly what factor), per
// the reproduction contract in DESIGN.md — not that absolute numbers match
// a testbed we do not have.
func judgeClaims(g Grid) ([]claimCheck, error) {
	cfg, runs := g.Config, g.Summaries

	// C1: up to 98% less budget overshoot than state-of-the-art.
	odrlOver, worstOver := 0.0, 0.0
	for _, bench := range cfg.Benchmarks {
		odrlOver += runs[bench]["od-rl"].OverJ
	}
	// Worst baseline = the SOTA controller with the largest suite total.
	for _, name := range []string{"maxbips", "steepest-drop", "pid"} {
		sum := 0.0
		for _, bench := range cfg.Benchmarks {
			if s, ok := runs[bench][name]; ok {
				sum += s.OverJ
			}
		}
		if sum > worstOver {
			worstOver = sum
		}
	}
	reduction := 0.0
	if worstOver > 0 {
		reduction = 1 - odrlOver/worstOver
	}

	// C2: up to 44.3x better throughput per over-the-budget energy.
	const floorJ = 1e-3
	bestRatio := 0.0
	for _, bench := range cfg.Benchmarks {
		for _, name := range []string{"steepest-drop", "pid"} {
			if s, ok := runs[bench][name]; ok {
				base := s.ThroughputPerOverJ(floorJ)
				if base > 0 {
					if r := runs[bench]["od-rl"].ThroughputPerOverJ(floorJ) / base; r > bestRatio {
						bestRatio = r
					}
				}
			}
		}
	}

	// C3: up to 23% higher energy efficiency.
	var gains []float64
	maxGain := 0.0
	for _, bench := range cfg.Benchmarks {
		bestSOTA := 0.0
		for _, name := range []string{"maxbips", "steepest-drop", "pid"} {
			if s, ok := runs[bench][name]; ok && s.EnergyEff() > bestSOTA {
				bestSOTA = s.EnergyEff()
			}
		}
		if bestSOTA > 0 {
			gain := runs[bench]["od-rl"].EnergyEff()/bestSOTA - 1
			gains = append(gains, 1+gain)
			if gain > maxGain {
				maxGain = gain
			}
		}
	}
	geo := 0.0
	if len(gains) > 0 {
		geo = stats.GeoMean(gains) - 1
	}

	// C4: two orders of magnitude controller speedup for hundreds of cores,
	// judged on nominal work per epoch (ctrl.WorkCounter), so the verdict
	// does not depend on the host. F5 times the decisions.
	scaleCores := 256
	if cfg.Quick {
		scaleCores = 64
	}
	tel := syntheticTelemetry(scaleCores, cfg.Seed)
	budget := 1.4*float64(scaleCores) + power.Default().UncoreW
	env := sim.DefaultEnv(scaleCores)
	env.Seed = cfg.Seed
	odrl, err := sim.NewController("od-rl", env)
	if err != nil {
		return nil, err
	}
	defer release(odrl)
	maxbips, err := sim.NewController("maxbips", env)
	if err != nil {
		return nil, err
	}
	defer release(maxbips)
	odrlWork := workPerEpoch(odrl, env.CadenceEpochs, tel, budget)
	maxbipsWork := workPerEpoch(maxbips, env.CadenceEpochs, tel, budget)
	workRatio := maxbipsWork / odrlWork

	return []claimCheck{{
		"C1", "up to 98% less budget overshoot",
		fmt.Sprintf("suite overshoot %.3f J (od-rl) vs %.3f J (worst SOTA): %.1f%% reduction",
			odrlOver, worstOver, 100*reduction),
		[]float64{100 * reduction}, "%.1f%%",
		worstOver == 0 && odrlOver == 0 || reduction >= 0.90,
	}, {
		"C2", "up to 44.3x better throughput per over-budget energy",
		fmt.Sprintf("best ratio vs overshooting SOTA: %.1fx", bestRatio),
		[]float64{bestRatio}, "%.1fx",
		bestRatio >= 10,
	}, {
		"C3", "up to 23% higher energy efficiency",
		fmt.Sprintf("max gain %+.1f%%, geomean %+.1f%% vs best SOTA", 100*maxGain, 100*geo),
		[]float64{100 * maxGain, 100 * geo}, "max %+.1f%%, geomean %+.1f%%",
		maxGain >= 0.15 && geo > 0,
	}, {
		"C4", "two orders of magnitude controller speedup at hundreds of cores",
		fmt.Sprintf("at %d cores: od-rl %.0f vs maxbips %.0f nominal work per epoch (%.0fx)",
			scaleCores, odrlWork, maxbipsWork, workRatio),
		[]float64{workRatio}, "%.0fx",
		workRatio >= 100,
	}}, nil
}

// Claims tabulates the four claims judged on one grid per seed, one row
// per claim: the first seed's measurement, the min and median over seeds
// of each number the verdict tests, the seeds passed, and a verdict that
// passes only if every seed does and otherwise names the failing seeds.
// It is a pure function of the grids.
func Claims(grids []Grid) (Table, error) {
	if len(grids) == 0 {
		return Table{}, fmt.Errorf("experiments: claims need a grid")
	}
	first, last := grids[0].Config.Seed, grids[len(grids)-1].Config.Seed
	t := Table{
		ID:     "CLAIMS",
		Title:  fmt.Sprintf("paper claims C1–C4 on seeds %d–%d", first, last),
		Header: []string{"claim", "paper", fmt.Sprintf("measured (seed %d)", first), "min", "median", "seeds passed", "verdict"},
		Notes: []string{
			"PASS needs every seed: C1 reduction >= 90%, C2 >= 10x, C3 max gain >= 15% with geomean > 0, C4 work ratio >= 100x",
			"C1–C3 judge each seed's benchmark × controller grid (F2–F4's runs); C4 counts nominal work per epoch, and F5 times the decisions",
		},
	}
	checks := make([][]claimCheck, len(grids))
	for i, g := range grids {
		var err error
		if checks[i], err = judgeClaims(g); err != nil {
			return Table{}, fmt.Errorf("seed %d: %w", g.Config.Seed, err)
		}
	}
	for c, c0 := range checks[0] {
		mins, medians := make([]any, len(c0.tested)), make([]any, len(c0.tested))
		for k := range c0.tested {
			vals := make([]float64, len(grids))
			for i := range grids {
				vals[i] = checks[i][c].tested[k]
			}
			mins[k], _ = stats.MinMax(vals)
			medians[k] = stats.Percentile(vals, 50)
		}
		var failed []string
		for i, g := range grids {
			if !checks[i][c].pass {
				failed = append(failed, fmt.Sprint(g.Config.Seed))
			}
		}
		verdict := "PASS"
		if len(failed) == 1 {
			verdict = "FAIL on seed " + failed[0]
		} else if len(failed) > 1 {
			verdict = "FAIL on seeds " + strings.Join(failed, ", ")
		}
		t.Rows = append(t.Rows, []string{
			c0.id, c0.claim, c0.measured, fmt.Sprintf(c0.format, mins...), fmt.Sprintf(c0.format, medians...),
			fmt.Sprintf("%d/%d", len(grids)-len(failed), len(grids)), verdict,
		})
	}
	return t, nil
}

// Failed reports the failing verdicts of a claims table as one error that
// names each claim and its seeds ("claims failed: C1 FAIL on seed 2"). It
// is nil for a passing claims table and for every other table.
func (t Table) Failed() error {
	if t.ID != "CLAIMS" {
		return nil
	}
	var fails []string
	for _, row := range t.Rows {
		if v := row[len(row)-1]; v != "PASS" {
			fails = append(fails, row[0]+" "+v)
		}
	}
	if len(fails) == 0 {
		return nil
	}
	return fmt.Errorf("claims failed: %s", strings.Join(fails, "; "))
}
