// Package experiments regenerates every table and figure of the paper's
// evaluation (as reconstructed in DESIGN.md — the paper body is not
// available, so experiment IDs are ours and each maps to an abstract claim
// or standard supporting material).
//
// Each experiment is a function returning a Table; cmd/odrl-bench renders
// them for humans and bench_test.go wraps them in testing.B benchmarks.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/ctrl"
	"repro/internal/fault"
	"repro/internal/plot"
	"repro/internal/sim"
)

// Config scopes an experiment run.
type Config struct {
	// Cores is the default platform size.
	Cores int
	// BudgetW is the default chip budget.
	BudgetW float64
	// WarmupS and MeasureS set run windows.
	WarmupS  float64
	MeasureS float64
	// Seed drives all randomness.
	Seed uint64
	// Controllers and Benchmarks select the comparison axes; empty slices
	// take the defaults.
	Controllers []string
	Benchmarks  []string
	// Quick shrinks run lengths for use inside unit tests and smoke runs;
	// numbers remain directionally meaningful but noisier.
	Quick bool
	// Workers bounds the goroutines that fan an experiment's independent
	// runs out through sim.RunJobs (every grid and sweep: benchmark ×
	// controller, budget points, core counts, seeds, variants) and that
	// shard large chips' per-core loops: 0 uses one worker per CPU, 1
	// forces fully sequential execution. Every table is bit-identical for
	// any worker count — runs derive their randomness from (Seed, run
	// identity), never from scheduling order.
	Workers int
	// FaultPlan, when non-nil and non-zero, injects deterministic faults
	// into every run (see package fault). F18 sweeps its own plans and
	// ignores this field.
	FaultPlan *fault.Plan
	// Stack is the observability every run of the experiment reports to
	// (see sim.Stack). Experiments that attach their own monitor or learn
	// layer to a run keep the rest of the stack on it.
	Stack sim.Stack
}

// Default returns the evaluation configuration used in EXPERIMENTS.md.
func Default() Config {
	return Config{
		Cores:    64,
		BudgetW:  55,
		WarmupS:  4,
		MeasureS: 6,
		Seed:     1,
		Controllers: []string{
			"od-rl", "maxbips", "steepest-drop", "pid", "greedy", "static",
		},
		Benchmarks: []string{
			"blackscholes", "bodytrack", "canneal", "dedup", "ferret",
			"fluidanimate", "streamcluster", "swaptions", "vips", "x264",
		},
	}
}

// Normalized applies Quick scaling and fills empty axes: the configuration
// every experiment runs at.
func (c Config) Normalized() Config {
	d := Default()
	if c.Cores == 0 {
		c.Cores = d.Cores
	}
	if c.BudgetW == 0 {
		c.BudgetW = d.BudgetW
	}
	if c.WarmupS == 0 {
		c.WarmupS = d.WarmupS
	}
	if c.MeasureS == 0 {
		c.MeasureS = d.MeasureS
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if len(c.Controllers) == 0 {
		c.Controllers = d.Controllers
	}
	if len(c.Benchmarks) == 0 {
		c.Benchmarks = d.Benchmarks
	}
	if c.Quick {
		c.WarmupS = 0.5
		c.MeasureS = 0.5
		if c.Cores > 16 {
			c.Cores = 16
		}
		if len(c.Benchmarks) > 3 {
			c.Benchmarks = c.Benchmarks[:3]
		}
	}
	return c
}

// runOpts returns the harness options every experiment run starts from:
// the shared axes (platform size, budget, windows, seed, workers, fault
// plan) and the observability stack filled from the experiment config.
// Individual experiments override fields from there, and sim.RunJobs
// builds each run's controller from the final options.
func (c Config) runOpts() sim.Options {
	opts := sim.DefaultOptions()
	opts.Cores = c.Cores
	opts.BudgetW = c.BudgetW
	opts.WarmupS = c.WarmupS
	opts.MeasureS = c.MeasureS
	opts.Seed = c.Seed
	opts.Workers = c.Workers
	opts.FaultPlan = c.FaultPlan
	opts.Stack = c.Stack
	return opts
}

// jobs returns one run per (point, controller) pair, point-major: job
// p*len(names)+k runs names[k] on the run options set adjusts for point p.
func (c Config) jobs(points int, names []string, set func(p int, j *sim.Job)) []sim.Job {
	jobs := make([]sim.Job, 0, points*len(names))
	for p := 0; p < points; p++ {
		j := sim.Job{Options: c.runOpts()}
		set(p, &j)
		for _, name := range names {
			j.Controller = name
			jobs = append(jobs, j)
		}
	}
	return jobs
}

// release closes a controller a runner built itself once its runs are
// done: an OD-RL controller on a large chip parks a worker pool between
// epochs. Runs through sim.RunJobs need no call.
func release(c ctrl.Controller) {
	if cl, ok := c.(io.Closer); ok {
		cl.Close()
	}
}

// Table is one rendered experiment result. The JSON form is a stable
// contract: the scenario result cache (internal/scenario) persists tables
// as content-addressed JSON files, so renaming these keys invalidates
// every on-disk cache (bump the scenario engine version when doing so).
type Table struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

// WriteTo renders the table as aligned text.
func (t Table) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	plot.WriteAligned(&b, append([][]string{t.Header}, t.Rows...)) //nolint:errcheck // a strings.Builder never fails
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	b.WriteString("\n")
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// WriteCSV renders the table as CSV (header row then data rows); notes are
// emitted as trailing comment lines.
func (t Table) WriteCSV(w io.Writer) error {
	writeRow := func(row []string) error {
		for i, cell := range row {
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if strings.ContainsAny(cell, ",\"\n") {
				cell = `"` + strings.ReplaceAll(cell, `"`, `""`) + `"`
			}
			if _, err := io.WriteString(w, cell); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "\n")
		return err
	}
	if err := writeRow(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "# %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// Cell formats a float compactly for table cells.
func Cell(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000 || v < 0.01:
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// Registry maps experiment IDs to their runners, in presentation order.
type Runner func(Config) (Table, error)

// All returns the experiment registry in presentation order.
func All() []struct {
	ID  string
	Run Runner
} {
	return []struct {
		ID  string
		Run Runner
	}{
		{"CLAIMS", gridRunner("CLAIMS")},
		{"T1", T1Platform},
		{"T2", T2Workloads},
		{"F1", F1PowerTrace},
		{"F2", gridRunner("F2")},
		{"F3", gridRunner("F3")},
		{"F4", gridRunner("F4")},
		{"F5", F5ControllerScaling},
		{"F6", F6Convergence},
		{"F7", F7BudgetSweep},
		{"F8", F8CoreScaling},
		{"F9", F9Ablation},
		{"F10", F10Thermal},
		{"F11", F11Variation},
		{"F12", F12WarmStart},
		{"F13", F13Islands},
		{"F14", F14Barrier},
		{"F15", F15Seeds},
		{"F16", F16Server},
		{"F17", F17Hetero},
		{"F18", F18FaultIntensity},
		{"F19", F19LearningDynamics},
	}
}

// ByID returns the runner for one experiment ID.
func ByID(id string) (Runner, error) {
	for _, e := range All() {
		if e.ID == id {
			return e.Run, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", id)
}

// ReduceGrids tabulates a grid experiment from the benchmark grids that
// grid returns, one per seed it reads: F2, F3 and F4 the one at cfg.Seed,
// and CLAIMS five from cfg.Seed up (two in quick mode), the first of them
// F2's. ok is false for any other experiment. Every reduction is a pure
// function of its grids, so a caller that keeps them runs each grid once.
func ReduceGrids(id string, cfg Config, grid func(seed uint64) (Grid, error)) (t Table, ok bool, err error) {
	cfg = cfg.Normalized()
	seeds := []uint64{cfg.Seed}
	var reduce func([]Grid) (Table, error)
	switch id {
	case "CLAIMS":
		seeds = []uint64{cfg.Seed, cfg.Seed + 1}
		if !cfg.Quick {
			seeds = append(seeds, cfg.Seed+2, cfg.Seed+3, cfg.Seed+4)
		}
		reduce = Claims
	case "F2", "F3", "F4":
		one := map[string]func(Grid) Table{"F2": F2Overshoot, "F3": F3ThroughputPerOverEnergy, "F4": F4EnergyEfficiency}[id]
		reduce = func(gs []Grid) (Table, error) { return one(gs[0]), nil }
	default:
		return Table{}, false, nil
	}
	grids := make([]Grid, len(seeds))
	for i, seed := range seeds {
		if grids[i], err = grid(seed); err != nil {
			return Table{}, true, err
		}
	}
	t, err = reduce(grids)
	return t, true, err
}
