package experiments

import (
	"fmt"

	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/vf"
	"repro/internal/workload"
)

// T1Platform renders the system configuration table: core grid, VF levels,
// power and thermal constants — the fixed context of every experiment.
func T1Platform(cfg Config) (Table, error) {
	cfg = cfg.Normalized()
	w, h, err := sim.GridFor(cfg.Cores)
	if err != nil {
		return Table{}, err
	}
	tbl := vf.Default()
	pp := power.Default()
	tp := thermal.Default()

	t := Table{
		ID:     "T1",
		Title:  "platform configuration",
		Header: []string{"parameter", "value"},
	}
	add := func(k, v string) { t.Rows = append(t.Rows, []string{k, v}) }
	add("cores", fmt.Sprintf("%d (%dx%d mesh)", cfg.Cores, w, h))
	add("VF levels", fmt.Sprintf("%d", tbl.Levels()))
	for _, p := range tbl.Points() {
		add(fmt.Sprintf("  L%d", p.Level), fmt.Sprintf("%.2f GHz @ %.3f V", p.FreqHz/1e9, p.VoltageV))
	}
	add("Ceff per core", fmt.Sprintf("%.2g F", pp.CeffF))
	add("leakage @ (Vref,Tref)", fmt.Sprintf("%.2f A @ (%.2f V, %.0f K)", pp.LeakI0A, pp.VrefV, pp.TrefK))
	add("uncore power", fmt.Sprintf("%.1f W", pp.UncoreW))
	add("thermal ambient", fmt.Sprintf("%.0f K", tp.AmbientK))
	add("vertical/lateral G", fmt.Sprintf("%.2f / %.2f W/K", tp.VerticalGWPerK, tp.LateralGWPerK))
	add("control epoch", "1 ms")
	add("chip budget", fmt.Sprintf("%.0f W", cfg.BudgetW))
	add("centralized cadence", "10 epochs (10 ms)")
	return t, nil
}

// T2Workloads characterises every benchmark preset at the mid VF level:
// CPI, MPKI, memory-boundedness, activity and phase volatility.
func T2Workloads(cfg Config) (Table, error) {
	cfg = cfg.Normalized()
	mid := vf.Default().Point(vf.Default().Levels() / 2)
	t := Table{
		ID:    "T2",
		Title: fmt.Sprintf("workload characterisation at %.2f GHz", mid.FreqHz/1e9),
		Header: []string{
			"benchmark", "CPI", "MPKI", "mem-bound", "activity", "phase-changes/s",
		},
	}
	dur := 5.0
	if cfg.Quick {
		dur = 1.0
	}
	for _, name := range workload.PresetNames() {
		c, err := workload.Characterize(workload.MustPreset(name), cfg.Seed, dur, mid.FreqHz)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			name, cell(c.MeanCPI), cell(c.MeanMPKI), cell(c.MemBoundedness),
			cell(c.MeanActivity), cell(c.PhaseRatePerS),
		})
	}
	return t, nil
}
