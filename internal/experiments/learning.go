package experiments

import (
	"fmt"

	"repro/internal/obs/learn"
	"repro/internal/sim"
)

// F19LearningDynamics is an introspection experiment: per-controller
// learning dynamics from a cold start. For every learning controller it
// reports when (and whether) the per-core agents converge — greedy action
// stable and TD-error EMA settled — alongside the throughput and overshoot
// the same run delivers, tying policy stability to control quality.
func F19LearningDynamics(cfg Config) (Table, error) {
	cfg = cfg.Normalized()
	names := []string{"od-rl", "od-rl-norealloc"}
	det := learn.DefaultDetector()

	t := Table{
		ID:    "F19",
		Title: fmt.Sprintf("learning dynamics from cold start at %.0f W", cfg.BudgetW),
		Header: []string{
			"controller", "epochs", "conv(%)", "conv-epochs(p50)",
			"td-ema", "churn", "coverage", "epsilon", "BIPS", "over(J)",
		},
		Notes: []string{
			fmt.Sprintf("converged = greedy action stable %d epochs and TD-error EMA <= %g",
				det.StableEpochs, det.TDThreshold),
			"warmup is folded into the measured window so the table covers the whole learning transient",
		},
	}
	// Learning dynamics want the whole run, so start cold and measure from
	// epoch zero. Each run streams into a learn layer of its own.
	jobs := cfg.jobs(1, names, func(_ int, j *sim.Job) {
		j.MeasureS = j.WarmupS + j.MeasureS
		j.WarmupS = 0
	})
	for i := range jobs {
		jobs[i].Learn = learn.New(learn.Options{Detector: det})
	}
	results, err := sim.RunJobs(cfg.Workers, jobs)
	if err != nil {
		return Table{}, err
	}
	for i, res := range results {
		name := jobs[i].Controller
		runs := jobs[i].Learn.Runs()
		if len(runs) != 1 {
			return Table{}, fmt.Errorf("experiments: F19 controller %s streamed %d learn runs, want 1", name, len(runs))
		}
		s := runs[0].Summarize(false)
		convP50 := "-"
		if s.Converged > 0 {
			convP50 = fmt.Sprintf("%d", s.EpochsToConvergeP50)
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%d", s.Epochs),
			Cell(100 * s.ConvergedFrac),
			convP50,
			Cell(s.TDErrEMA), Cell(s.Churn), Cell(s.Coverage), Cell(s.Epsilon),
			Cell(res.Summary.BIPS()), Cell(res.Summary.OverJ),
		})
	}
	return t, nil
}
