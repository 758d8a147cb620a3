package experiments

import (
	"fmt"

	"repro/internal/ctrl"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/learn"
	"repro/internal/par"
	"repro/internal/power"
	"repro/internal/sim"
)

// windowRow is one learning-window measurement of a windowed run.
type windowRow struct {
	fromS, toS float64
	meanW      float64
	overJ      float64
	overTimeS  float64
	bips       float64
	// convFrac is the share of live agents converged by the window's end
	// (meaningful only when a learn.Run was attached).
	convFrac float64
}

// windowedRun drives one controller from simulated time zero and reports
// per-window metrics — the learning-curve harness shared by F6 and F12.
// When lr is non-nil the controller must already stream into it (via
// ctrl.LearnStreamer); each window then also records the cumulative
// converged-agent fraction at its close.
func windowedRun(cfg Config, c ctrl.Controller, lr *learn.Run, totalS, windowS float64) ([]windowRow, error) {
	opts := sim.DefaultOptions()
	opts.Cores = cfg.Cores
	opts.BudgetW = cfg.BudgetW
	opts.Seed = cfg.Seed
	opts.Workers = cfg.Workers
	chip, _, err := sim.NewChip(opts)
	if err != nil {
		return nil, err
	}
	defer chip.Close()

	out := make([]int, cfg.Cores)
	epochs := int(totalS / opts.EpochS)
	windowEpochs := int(windowS / opts.EpochS)
	var rows []windowRow
	var winEnergy, winOverJ, winOverT float64
	winInstr := chip.Instructions()
	for e := 0; e < epochs; e++ {
		tel := chip.Step(opts.EpochS)
		c.Decide(&tel, cfg.BudgetW, out)
		for i, l := range out {
			chip.SetLevel(i, l)
		}
		winEnergy += tel.TruePowerW * opts.EpochS
		if tel.TruePowerW > cfg.BudgetW {
			winOverJ += (tel.TruePowerW - cfg.BudgetW) * opts.EpochS
			winOverT += opts.EpochS
		}
		if (e+1)%windowEpochs == 0 {
			row := windowRow{
				fromS:     float64(e+1-windowEpochs) * opts.EpochS,
				toS:       float64(e+1) * opts.EpochS,
				meanW:     winEnergy / windowS,
				overJ:     winOverJ,
				overTimeS: winOverT,
				bips:      (chip.Instructions() - winInstr) / windowS / 1e9,
			}
			if lr != nil {
				row.convFrac = lr.Summarize(false).ConvergedFrac
			}
			rows = append(rows, row)
			winEnergy, winOverJ, winOverT = 0, 0, 0
			winInstr = chip.Instructions()
		}
	}
	return rows, nil
}

// F6Convergence reproduces the RL learning-curve figure: windowed overshoot,
// mean power and throughput of OD-RL from a cold start. Overshoot should
// decay toward zero as exploration anneals while throughput holds.
func F6Convergence(cfg Config) (Table, error) {
	cfg = cfg.Normalized()
	totalS := 10.0
	windowS := 1.0
	if cfg.Quick {
		totalS, windowS = 2.0, 0.25
	}
	env := sim.DefaultEnv(cfg.Cores)
	env.Seed = cfg.Seed
	c, err := sim.NewController("od-rl", env)
	if err != nil {
		return Table{}, err
	}
	defer release(c)
	// Attach learning introspection so each window also reports how much of
	// the policy has converged — the "why" behind the decaying overshoot.
	lrn := learn.New(learn.Options{})
	var lr *learn.Run
	if ls, ok := c.(ctrl.LearnStreamer); ok {
		lr = lrn.BeginRun(obs.RunMeta{Controller: "od-rl", Cores: cfg.Cores, BudgetW: cfg.BudgetW, Seed: cfg.Seed}, nil, 0)
		ls.SetLearnSink(lr)
		defer ls.SetLearnSink(nil)
	}
	rows, err := windowedRun(cfg, c, lr, totalS, windowS)
	if err != nil {
		return Table{}, err
	}

	t := Table{
		ID:     "F6",
		Title:  fmt.Sprintf("OD-RL convergence from cold start at %.0f W", cfg.BudgetW),
		Header: []string{"window(s)", "mean(W)", "over(J)", "over-time(%)", "BIPS", "conv(%)"},
		Notes:  []string{"one row per learning window; exploration anneals over the run"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f-%.2f", r.fromS, r.toS),
			cell(r.meanW), cell(r.overJ), cell(100 * r.overTimeS / windowS), cell(r.bips),
			cell(100 * r.convFrac),
		})
	}
	if lr != nil {
		if s := lr.Summarize(false); s.Converged > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"conv(%%) = agents greedy-stable with settled TD error; %d/%d converged, median %d epochs",
				s.Converged, s.LiveAgents, s.EpochsToConvergeP50))
		}
	}
	return t, nil
}

// F7BudgetSweep reproduces the budget-sensitivity figure: throughput and
// overshoot across cap levels from heavily constrained to unconstrained.
// Gaps between controllers are largest at tight caps and vanish as the cap
// approaches the chip's unconstrained draw.
func F7BudgetSweep(cfg Config) (Table, error) {
	cfg = cfg.Normalized()
	budgets := []float64{35, 45, 55, 70, 85, 100, 120}
	if cfg.Quick {
		budgets = []float64{45, 85}
	}
	names := []string{"od-rl", "maxbips", "pid", "greedy"}
	if cfg.Quick {
		names = []string{"od-rl", "pid"}
	}

	t := Table{
		ID:     "F7",
		Title:  "budget sensitivity (mix workload)",
		Header: []string{"budget(W)"},
	}
	for _, n := range names {
		t.Header = append(t.Header, n+" BIPS", n+" over(J)")
	}

	// The (budget × controller) grid is a set of independent runs; fan it
	// out across cfg.Workers and assemble rows from index-addressed slots.
	nn := len(names)
	summaries, err := par.MapErr(cfg.Workers, len(budgets)*nn, func(i int) (metrics.Summary, error) {
		b, name := budgets[i/nn], names[i%nn]
		opts := cfg.runOpts()
		opts.BudgetW = b
		res, err := sim.RunNamed(opts, name)
		if err != nil {
			return metrics.Summary{}, err
		}
		return res.Summary, nil
	})
	if err != nil {
		return Table{}, err
	}
	for bi, b := range budgets {
		row := []string{cell(b)}
		for ni := range names {
			s := summaries[bi*nn+ni]
			row = append(row, cell(s.BIPS()), cell(s.OverJ))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// F8CoreScaling reproduces the system-scalability figure: throughput as the
// chip grows under a fixed per-core budget. The MaxBIPS knapsack is omitted
// above 256 cores — its decision latency there is the point of F5, not F8.
func F8CoreScaling(cfg Config) (Table, error) {
	cfg = cfg.Normalized()
	coreCounts := []int{16, 64, 144, 256}
	if cfg.Quick {
		coreCounts = []int{16, 36}
	}
	names := []string{"od-rl", "steepest-drop", "pid", "greedy"}
	if cfg.Quick {
		names = []string{"od-rl", "pid"}
	}
	const perCoreW = 0.9

	t := Table{
		ID:     "F8",
		Title:  fmt.Sprintf("throughput scaling at %.1f W per core", perCoreW),
		Header: []string{"cores", "budget(W)"},
	}
	for _, n := range names {
		t.Header = append(t.Header, n+" BIPS", n+" BIPS/core")
	}

	// Fan the (core count × controller) grid out across cfg.Workers; each
	// run also shards its own per-core loops once the chip is large enough.
	nn := len(names)
	summaries, err := par.MapErr(cfg.Workers, len(coreCounts)*nn, func(i int) (metrics.Summary, error) {
		n, name := coreCounts[i/nn], names[i%nn]
		opts := cfg.runOpts()
		opts.Cores = n
		opts.BudgetW = perCoreW*float64(n) + power.Default().UncoreW
		res, err := sim.RunNamed(opts, name)
		if err != nil {
			return metrics.Summary{}, err
		}
		return res.Summary, nil
	})
	if err != nil {
		return Table{}, err
	}
	for ci, n := range coreCounts {
		budget := perCoreW*float64(n) + power.Default().UncoreW
		row := []string{fmt.Sprintf("%d", n), cell(budget)}
		for ni := range names {
			s := summaries[ci*nn+ni]
			row = append(row, cell(s.BIPS()), cell(s.BIPS()/float64(n)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
