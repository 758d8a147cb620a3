package experiments

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/sim"
)

// F13Islands is an extension experiment: DVFS granularity. The same
// controllers run on the same chip with per-core DVFS, 2×2-core and
// 4×4-core voltage-frequency islands, and a single chip-wide domain.
// Islands actuate at the max level requested by their member cores, so
// coarser domains waste power on cores that did not need the speed —
// throughput-per-watt should degrade monotonically with island size,
// quantifying what per-core control (the paper's setting) is worth.
func F13Islands(cfg Config) (Table, error) {
	cfg = cfg.Normalized()
	type gran struct {
		label  string
		iw, ih int
	}
	grans := []gran{
		{"per-core", 1, 1},
		{"2x2", 2, 2},
		{"4x4", 4, 4},
	}
	// A chip-wide island needs the actual grid dims.
	gw, gh, err := sim.GridFor(cfg.Cores)
	if err != nil {
		return Table{}, err
	}
	grans = append(grans, gran{"chip-wide", gw, gh})
	if cfg.Quick {
		grans = []gran{{"per-core", 1, 1}, {"chip-wide", gw, gh}}
	}
	// Keep the granularities that tile the chosen grid.
	grans = slices.DeleteFunc(grans, func(g gran) bool { return gw%g.iw != 0 || gh%g.ih != 0 })
	names := []string{"od-rl", "od-rl-island", "greedy"}

	t := Table{
		ID:     "F13",
		Title:  fmt.Sprintf("DVFS granularity: VFI size at %.0f W (extension)", cfg.BudgetW),
		Header: []string{"island"},
		Notes: []string{
			"islands run at the max level requested by their cores",
			"coarser islands waste budget on cores that did not need the speed",
			"per-core od-rl agents pin a wide island high through uncoordinated exploration;",
			"od-rl-island (one agent per island) restores coordinated control at the hardware granularity",
		},
	}
	for _, n := range names {
		t.Header = append(t.Header, n+" BIPS", n+" BIPS/W", n+" over(J)")
	}

	jobs := cfg.jobs(len(grans), names, func(g int, j *sim.Job) {
		j.IslandW, j.IslandH = grans[g].iw, grans[g].ih
	})
	for i := range jobs {
		if jobs[i].Controller != "od-rl-island" {
			continue
		}
		// One agent per island, which the factory cannot build.
		iw, ih := jobs[i].IslandW, jobs[i].IslandH
		jobs[i].Build = func(env sim.Env) (ctrl.Controller, error) {
			ccfg := core.DefaultConfig()
			ccfg.Seed = env.Seed
			return core.NewIslands(gw, gh, iw, ih, env.VF, env.Power, ccfg)
		}
	}
	results, err := sim.RunJobs(cfg.Workers, jobs)
	if err != nil {
		return Table{}, err
	}
	for gi, g := range grans {
		row := []string{g.label}
		for _, res := range results[gi*len(names) : (gi+1)*len(names)] {
			row = append(row, Cell(res.Summary.BIPS()), Cell(res.Summary.EnergyEff()), Cell(res.Summary.OverJ))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
