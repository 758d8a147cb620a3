package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/vf"
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

	for _, g := range grans {
		if gw%g.iw != 0 || gh%g.ih != 0 {
			continue // this granularity does not tile the chosen grid
		}
		row := []string{g.label}
		for _, name := range names {
			opts := cfg.runOpts()
			opts.IslandW, opts.IslandH = g.iw, g.ih
			var c ctrl.Controller
			if name == "od-rl-island" {
				ccfg := core.DefaultConfig()
				ccfg.Seed = cfg.Seed
				ic, err := core.NewIslands(gw, gh, g.iw, g.ih, vf.Default(), power.Default(), ccfg)
				if err != nil {
					return Table{}, err
				}
				c = ic
			} else {
				env, err := sim.EnvFor(opts)
				if err != nil {
					return Table{}, err
				}
				c, err = sim.NewController(name, env)
				if err != nil {
					return Table{}, err
				}
			}
			res, err := sim.Run(opts, c)
			release(c)
			if err != nil {
				return Table{}, err
			}
			row = append(row, Cell(res.Summary.BIPS()), Cell(res.Summary.EnergyEff()), Cell(res.Summary.OverJ))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
