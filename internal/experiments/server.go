package experiments

import (
	"fmt"

	"repro/internal/manycore"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/vf"
	"repro/internal/workload"
)

// F16Server is an extension experiment: power-capped server consolidation.
// Jobs arrive in a shared queue (Poisson) and complete by retired
// instructions; idle cores clock-gate. Under a tight cap the controller's
// job is to spend the budget where it shortens the queue. The table
// reports job throughput, mean job latency and queue depth per controller
// — the metrics a datacentre operator actually caps against.
func F16Server(cfg Config) (Table, error) {
	cfg = cfg.Normalized()
	names := []string{"od-rl", "maxbips", "pid", "greedy", "static"}
	if cfg.Quick {
		names = []string{"od-rl", "pid"}
	}

	t := Table{
		ID:     "F16",
		Title:  fmt.Sprintf("power-capped server (shared job queue) at %.0f W (extension)", cfg.BudgetW),
		Header: []string{"controller", "jobs/s", "mean-latency(ms)", "max-queue", "mean(W)", "over(J)"},
		Notes: []string{
			"Poisson arrivals into one shared queue; jobs complete by retired instructions",
			"offered load sized so a throttled chip queues visibly; idle cores clock-gate",
		},
	}

	w, h, err := sim.GridFor(cfg.Cores)
	if err != nil {
		return Table{}, err
	}
	warmupEpochs := int(cfg.WarmupS / 1e-3)
	measureEpochs := int(cfg.MeasureS / 1e-3)

	// Offered load: ~60% of the chip's top-speed service capacity, so a
	// tight cap pushes the system into visible queueing.
	work := workload.Phase{
		Class: workload.Compute, BaseCPI: 1.0, MPKI: 3.0,
		MemLatencyNs: 80, Activity: 0.85,
	}
	const meanJobInstr = 25e6
	topIPS := work.IPSAt(vf.Default().Max().FreqHz)
	arrivalRate := 0.6 * float64(cfg.Cores) * topIPS / meanJobInstr

	for _, name := range names {
		base := rng.New(cfg.Seed)
		sys, err := workload.NewJobSystem(cfg.Cores, work, arrivalRate, meanJobInstr, base.Split())
		if err != nil {
			return Table{}, err
		}
		sources := make([]workload.Source, cfg.Cores)
		for i := range sources {
			sources[i] = sys.Lane(i)
		}
		mcCfg := manycore.Config{
			Width: w, Height: h,
			VF:                 vf.Default(),
			Power:              power.Default(),
			Thermal:            thermal.Default(),
			ThermalEnabled:     true,
			SensorNoise:        0.02,
			TransitionPenaltyS: 10e-6,
		}
		chip, err := manycore.New(mcCfg, sources, base.Split())
		if err != nil {
			return Table{}, err
		}
		env := sim.DefaultEnv(cfg.Cores)
		env.Seed = cfg.Seed
		c, err := sim.NewController(name, env)
		if err != nil {
			return Table{}, err
		}

		out := make([]int, cfg.Cores)
		var energy, overJ float64
		for e := 0; e < warmupEpochs+measureEpochs; e++ {
			if e == warmupEpochs {
				sys.ResetStats()
			}
			tel := chip.Step(1e-3)
			c.Decide(&tel, cfg.BudgetW, out)
			for i, l := range out {
				chip.SetLevel(i, l)
			}
			if e >= warmupEpochs {
				energy += tel.TruePowerW * 1e-3
				if tel.TruePowerW > cfg.BudgetW {
					overJ += (tel.TruePowerW - cfg.BudgetW) * 1e-3
				}
			}
		}
		chip.Close()
		release(c)
		t.Rows = append(t.Rows, []string{
			name,
			Cell(float64(sys.Completed()) / cfg.MeasureS),
			Cell(sys.MeanLatencyS() * 1e3),
			fmt.Sprintf("%d", sys.MaxQueued()),
			Cell(energy / cfg.MeasureS),
			Cell(overJ),
		})
	}
	return t, nil
}
