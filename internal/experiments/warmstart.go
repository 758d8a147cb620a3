package experiments

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/learn"
	"repro/internal/power"
	"repro/internal/vf"
)

// F12WarmStart is an extension experiment: policy persistence. An OD-RL
// controller is trained once, its per-core Q-tables are saved, and a fresh
// controller warm-started from that policy is compared window-by-window
// against a cold start. Warm starting should eliminate the early-window
// overshoot and throughput ramp — the deployment story for "on-line" RL
// control surviving reboots.
func F12WarmStart(cfg Config) (Table, error) {
	cfg = cfg.Normalized()
	trainS := 8.0
	totalS := 3.0
	windowS := 0.5
	if cfg.Quick {
		trainS, totalS, windowS = 1.5, 1.0, 0.25
	}

	newODRL := func() (*core.Controller, error) {
		c := core.DefaultConfig()
		c.Seed = cfg.Seed
		return core.New(cfg.Cores, vf.Default(), power.Default(), c)
	}

	// Train and save.
	trained, err := newODRL()
	if err != nil {
		return Table{}, err
	}
	defer trained.Close()
	if _, err := windowedRun(cfg, trained, nil, trainS, trainS); err != nil {
		return Table{}, err
	}
	var policy bytes.Buffer
	if err := trained.SavePolicy(&policy); err != nil {
		return Table{}, err
	}

	// Both measured legs stream learning telemetry so the table shows not
	// just that warm starting helps but why: the restored policy begins
	// (nearly) converged while the cold one is still exploring.
	lrn := learn.New(learn.Options{})
	meta := obs.RunMeta{Controller: "od-rl", Cores: cfg.Cores, BudgetW: cfg.BudgetW, Seed: cfg.Seed}

	// Cold start.
	cold, err := newODRL()
	if err != nil {
		return Table{}, err
	}
	defer cold.Close()
	coldLR := lrn.BeginRun(meta, nil, 0)
	cold.SetLearnSink(coldLR)
	coldRows, err := windowedRun(cfg, cold, coldLR, totalS, windowS)
	cold.SetLearnSink(nil)
	if err != nil {
		return Table{}, err
	}

	// Warm start: same fresh controller shape, restored tables.
	warm, err := newODRL()
	if err != nil {
		return Table{}, err
	}
	defer warm.Close()
	if err := warm.LoadPolicy(&policy); err != nil {
		return Table{}, err
	}
	warmLR := lrn.BeginRun(meta, nil, 0)
	warm.SetLearnSink(warmLR)
	warmRows, err := windowedRun(cfg, warm, warmLR, totalS, windowS)
	warm.SetLearnSink(nil)
	if err != nil {
		return Table{}, err
	}

	t := Table{
		ID:    "F12",
		Title: fmt.Sprintf("warm start from a saved policy at %.0f W (extension)", cfg.BudgetW),
		Header: []string{
			"window(s)", "cold BIPS", "cold over(J)", "cold conv(%)",
			"warm BIPS", "warm over(J)", "warm conv(%)",
		},
		Notes: []string{
			fmt.Sprintf("policy trained for %.1fs, saved, restored into a fresh controller", trainS),
			"warm start should match the trained steady state from the first window",
			"conv(%) = agents greedy-stable with settled TD error by the window's end",
		},
	}
	for i := range coldRows {
		cr := coldRows[i]
		wr := warmRows[i]
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f-%.2f", cr.fromS, cr.toS),
			Cell(cr.bips), Cell(cr.overJ), Cell(100 * cr.convFrac),
			Cell(wr.bips), Cell(wr.overJ), Cell(100 * wr.convFrac),
		})
	}
	return t, nil
}
