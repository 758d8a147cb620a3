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
	for _, name := range names {
		opts := cfg.runOpts()
		// Learning dynamics want the whole run, so start cold and measure
		// from epoch zero.
		opts.MeasureS = opts.WarmupS + opts.MeasureS
		opts.WarmupS = 0
		lrn := learn.New(learn.Options{Detector: det})
		opts.Learn = lrn
		res, err := sim.RunNamed(opts, name)
		if err != nil {
			return Table{}, err
		}
		runs := lrn.Runs()
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
			cell(100 * s.ConvergedFrac),
			convP50,
			cell(s.TDErrEMA), cell(s.Churn), cell(s.Coverage), cell(s.Epsilon),
			cell(res.Summary.BIPS()), cell(res.Summary.OverJ),
		})
	}
	return t, nil
}
