package experiments

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/obs/monitor"
	"repro/internal/sim"
)

// F18FaultIntensity is an extension experiment: graceful degradation under
// injected faults. The canonical fault plan (fault.Scaled) is swept from
// intensity 0 (clean) to 1 (stuck sensors, biased meter, telemetry
// blackouts, flaky actuation, dead cores and cap transients all at once)
// and each controller is scored on how much throughput and budget
// compliance survives. The retention column is each run's BIPS relative to
// the same controller's fault-free run; the paper's robustness claim is
// that the distributed learner degrades smoothly while prediction-based
// centralised control decays faster on corrupted inputs.
func F18FaultIntensity(cfg Config) (Table, error) {
	cfg = cfg.Normalized()
	names := []string{"od-rl", "maxbips", "pid", "greedy"}
	intensities := []float64{0, 0.25, 0.5, 1.0}
	if cfg.Quick {
		names = []string{"od-rl", "pid"}
		intensities = []float64{0, 1.0}
	}
	nn := len(names)

	// Each run carries its own run-health monitor so the figure reports the
	// injected-fault and fired-alert counts next to the throughput columns.
	// Monitoring is read-only, so the metric columns are unchanged by it,
	// and both counts are deterministic: the fault stream is seeded, and
	// the deterministic rule subset (no wall-clock decide-latency rules) is
	// a pure function of the epoch stream.
	jobs := cfg.jobs(len(intensities), names, func(x int, j *sim.Job) {
		j.FaultPlan = nil // this figure owns the plan axis
		if intensities[x] > 0 {
			p := fault.Scaled(intensities[x])
			j.FaultPlan = &p
		}
		j.Rules = monitor.DeterministicDefaultRules(j.BudgetW, j.EpochS)
	})
	runs, err := sim.RunJobs(cfg.Workers, jobs)
	if err != nil {
		return Table{}, err
	}

	t := Table{
		ID:     "F18",
		Title:  fmt.Sprintf("graceful degradation under fault injection at %.0f W (extension)", cfg.BudgetW),
		Header: []string{"intensity", "controller", "BIPS", "retention", "mean(W)", "over(J)", "over-time(s)", "faults", "alerts"},
		Notes: []string{
			"canonical plan fault.Scaled(x): stuck sensors, meter bias+drift, blackouts, dropped/clamped actuation, dead cores, cap transients",
			"retention: BIPS relative to the same controller's fault-free run",
			"faults/alerts: injected fault events and run-health alerts fired by the default claim-invariant rules (obs/monitor)",
		},
	}
	for xi, x := range intensities {
		for ni := range names {
			r := runs[xi*nn+ni]
			s := r.Summary
			base := runs[ni].Summary // intensity 0 row for this controller
			retention := 0.0
			if base.BIPS() > 0 {
				retention = s.BIPS() / base.BIPS()
			}
			t.Rows = append(t.Rows, []string{
				Cell(x), s.Controller, Cell(s.BIPS()), Cell(retention),
				Cell(s.MeanW), Cell(s.OverJ), Cell(s.OverTimeS),
				fmt.Sprintf("%d", r.Faults), fmt.Sprintf("%d", r.Alerts),
			})
		}
	}
	return t, nil
}
