package scenario

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/obs/monitor"
	"repro/internal/sim"
)

// Engine interprets specs into tables through the same execution path the
// canned experiments use. The zero value runs without caching or
// observability.
type Engine struct {
	// Cache, when set, memoises successful runs under the spec's content
	// hash. Failed runs are never stored (see Run).
	Cache *Cache
	// Stack is the observability every run the engine executes reports to
	// (see sim.Stack). A monitored spec's per-run monitor takes the monitor
	// slot on its runs, and Stack.Monitor joins the observers it tees with,
	// so it still sees them. Cache hits run nothing and so report nothing.
	Stack sim.Stack

	// grids holds every benchmark grid the engine has run, by gridKey, for
	// the engine's lifetime (see Grid); mu guards it.
	mu    sync.Mutex
	grids map[string]experiments.Grid
}

// RunInfo reports how a spec was satisfied.
type RunInfo struct {
	// Hash is the spec's content address.
	Hash string
	// CacheHit is true when the table came from the cache.
	CacheHit bool
}

// Run validates the spec, consults the cache, and executes on a miss. Only
// successful executions are stored: an error return leaves the cache
// untouched, so a transient failure is retried on the next call instead of
// being replayed for the cache's lifetime.
func (e *Engine) Run(spec Spec) (experiments.Table, RunInfo, error) {
	if err := spec.Validate(); err != nil {
		return experiments.Table{}, RunInfo{}, err
	}
	hash, err := spec.Hash()
	if err != nil {
		return experiments.Table{}, RunInfo{}, err
	}
	info := RunInfo{Hash: hash}
	if e.Cache != nil {
		if tbl, ok := e.Cache.Get(hash); ok {
			info.CacheHit = true
			return tbl, info, nil
		}
	}
	tbl, err := e.execute(spec)
	if err != nil {
		return experiments.Table{}, info, err
	}
	if e.Cache != nil {
		if err := e.Cache.Put(hash, tbl); err != nil {
			return experiments.Table{}, info, fmt.Errorf("scenario: caching result: %w", err)
		}
	}
	return tbl, info, nil
}

// execute dispatches on the run kind. A grid experiment (F2–F4, CLAIMS)
// reduces the engine's grid for its axes at each of its seeds instead of
// running its own.
func (e *Engine) execute(spec Spec) (experiments.Table, error) {
	switch {
	case spec.Experiment != "":
		cfg := spec.experimentConfig()
		tbl, ok, err := experiments.ReduceGrids(spec.Experiment, cfg, func(seed uint64) (experiments.Grid, error) {
			s := spec
			s.Seeds = []uint64{seed}
			return e.Grid(s)
		})
		if ok {
			return tbl, err
		}
		runner, err := experiments.ByID(spec.Experiment)
		if err != nil {
			return experiments.Table{}, err
		}
		cfg.Stack = e.Stack
		return runner(cfg)
	case spec.Sweep != nil:
		return e.sweepTable(spec)
	default:
		return e.comparisonTable(spec)
	}
}

// Grid returns the (benchmark × controller) grid behind a grid experiment
// spec (F2, F3, F4 or CLAIMS) at its one seed: experiments.RunGrid on the
// spec's experiment config, reporting to e.Stack. The engine keeps each
// grid for its lifetime, so the three tables and the claim verdicts at the
// same axes share one set of runs per seed; two engines share nothing. A
// failed grid is not kept, so the next call runs it again.
func (e *Engine) Grid(spec Spec) (experiments.Grid, error) {
	if err := spec.Validate(); err != nil {
		return experiments.Grid{}, err
	}
	key, err := spec.gridKey()
	if err != nil {
		return experiments.Grid{}, err
	}
	e.mu.Lock()
	g, ok := e.grids[key]
	e.mu.Unlock()
	if ok {
		return g, nil
	}
	cfg := spec.experimentConfig()
	cfg.Stack = e.Stack
	if g, err = experiments.RunGrid(cfg); err != nil {
		return experiments.Grid{}, err
	}
	e.mu.Lock()
	if e.grids == nil {
		e.grids = map[string]experiments.Grid{}
	}
	e.grids[key] = g
	e.mu.Unlock()
	return g, nil
}

// gridKey names the grid an experiment spec runs: its content hash with
// the name and experiment ID cleared and the default seed made explicit,
// so F2, F3, F4 and CLAIMS's first seed at the same axes share a key.
// Validate admits only grid axes on experiment specs and Canonical drops
// Workers, so one key names exactly one grid.
func (s Spec) gridKey() (string, error) {
	s.Name, s.Experiment = "", ""
	if len(s.Seeds) == 0 {
		s.Seeds = []uint64{experiments.Default().Seed}
	}
	return s.Hash()
}

// experimentConfig maps the spec's shared axes onto the experiment Config
// the hand-coded runners take. The mapping is total over the fields
// Validate allows for experiment specs, so a spec replay is byte-identical
// to calling the runner directly with the same Config.
func (s Spec) experimentConfig() experiments.Config {
	cfg := experiments.Config{
		Cores:       s.Cores,
		BudgetW:     s.BudgetW,
		WarmupS:     s.WarmupS,
		MeasureS:    s.MeasureS,
		Controllers: s.Controllers,
		Benchmarks:  s.Benchmarks,
		Quick:       s.Quick,
		Workers:     s.Workers,
		FaultPlan:   s.FaultPlan,
	}
	if len(s.Seeds) == 1 {
		cfg.Seed = s.Seeds[0]
	}
	return cfg
}

// runAxes resolves the spec's comparison axes with defaults filled, and
// applies Quick scaling the same way experiments.Config does.
func (s Spec) runAxes() (seeds []uint64, workloads, controllers []string) {
	seeds = s.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{sim.DefaultOptions().Seed}
	}
	workloads = s.Benchmarks
	if len(workloads) == 0 {
		w := s.Workload
		if w == "" {
			w = sim.DefaultOptions().Workload
		}
		workloads = []string{w}
	}
	if s.Quick && len(workloads) > 3 {
		workloads = workloads[:3]
	}
	controllers = s.Controllers
	if len(controllers) == 0 {
		controllers = experiments.Default().Controllers
	}
	return seeds, workloads, controllers
}

// Options assembles the sim options for one run of the spec, reporting to
// stack. A zero core count, budget, epoch or window takes sim's default, as
// everywhere a spec is read.
func (s Spec) Options(seed uint64, workloadName string, stack sim.Stack) (sim.Options, error) {
	opts := sim.DefaultOptions()
	opts.Stack = stack
	opts.Workload = workloadName
	opts.Seed = seed
	opts.Workers = s.Workers
	if s.Cores > 0 {
		opts.Cores = s.Cores
	}
	if s.BudgetW > 0 {
		opts.BudgetW = s.BudgetW
	}
	if s.EpochS > 0 {
		opts.EpochS = s.EpochS
	}
	if s.WarmupS > 0 {
		opts.WarmupS = s.WarmupS
	}
	if s.MeasureS > 0 {
		opts.MeasureS = s.MeasureS
	}
	if s.SensorNoise != nil {
		opts.SensorNoise = *s.SensorNoise
	}
	opts.ThermalOff = s.ThermalOff
	opts.FaultPlan = s.FaultPlan
	for _, st := range s.BudgetSchedule {
		opts.BudgetSchedule = append(opts.BudgetSchedule, sim.BudgetStep{AtS: st.AtS, BudgetW: st.BudgetW})
	}
	if s.Platform != "" {
		p, err := config.PlatformPreset(s.Platform)
		if err != nil {
			return sim.Options{}, err
		}
		opts.Platform = &p
	}
	if s.Quick {
		opts.WarmupS = 0.5
		opts.MeasureS = 0.5
		if opts.Cores > 16 {
			opts.Cores = 16
		}
	}
	return opts, nil
}

// monitored reports whether runs carry the run-health monitor: always when
// alert rules are given, and for fault runs so the table can report the
// injected-fault count next to the metrics.
func (s Spec) monitored() bool {
	return len(s.AlertRules) > 0 || (s.FaultPlan != nil && !s.FaultPlan.Zero())
}

// job is one table run of controller on opts. A monitored spec gives the
// run a run-health monitor of its own that evaluates the spec's alert
// rules or, for fault runs without explicit rules, the deterministic
// claim-invariant defaults, so the alerts column stays a pure function of
// the epoch stream.
func (s Spec) job(opts sim.Options, controller string) sim.Job {
	j := sim.Job{Options: opts, Controller: controller}
	switch {
	case len(s.AlertRules) > 0:
		j.Rules = s.AlertRules
	case s.monitored():
		j.Rules = monitor.DeterministicDefaultRules(opts.BudgetW, opts.EpochS)
	}
	return j
}

// summaryCells renders the deterministic summary columns every engine table
// shares. Wall-clock metrics (controller compute time) are deliberately
// excluded: engine tables must be byte-stable so cached and fresh runs
// compare equal.
func summaryCells(s metrics.Summary) []string {
	return []string{
		experiments.Cell(s.BIPS()), experiments.Cell(s.MeanW), experiments.Cell(s.PeakW),
		experiments.Cell(s.OverJ), experiments.Cell(100 * s.OverTimeFrac()), experiments.Cell(s.EnergyEff()),
	}
}

var summaryHeader = []string{"BIPS", "mean(W)", "peak(W)", "over(J)", "over-time(%)", "BIPS/W"}

// tableNotes assembles the provenance notes shared by comparison and sweep
// tables: platform, fault plan and monitoring state.
func (s Spec) tableNotes() []string {
	platform := s.Platform
	if platform == "" {
		platform = config.Default().Name
	}
	notes := []string{"platform " + platform}
	if s.FaultPlan != nil && !s.FaultPlan.Zero() {
		notes = append(notes, "deterministic fault plan injected (see internal/fault)")
	}
	if s.monitored() {
		if len(s.AlertRules) > 0 {
			notes = append(notes, fmt.Sprintf("monitored: %d spec alert rules", len(s.AlertRules)))
		} else {
			notes = append(notes, "monitored: deterministic claim-invariant default rules")
		}
	}
	return notes
}

// title falls back to a generated label when the spec has no name.
func (s Spec) title(kind string) string {
	if s.Name != "" {
		return s.Name
	}
	return "declarative " + kind + " run"
}

// runTable runs one job per row and renders the engine's table: each row
// is its key cells, then the run's cores, budget and summary columns, and
// the fault and alert counts when the spec is monitored. Rows follow the
// jobs, so the table is identical for any worker count.
func runTable(spec Spec, t experiments.Table, keys [][]string, jobs []sim.Job) (experiments.Table, error) {
	results, err := sim.RunJobs(spec.Workers, jobs)
	if err != nil {
		return experiments.Table{}, fmt.Errorf("scenario: %w", err)
	}
	t.Header = append(append(t.Header, "cores", "budget(W)"), summaryHeader...)
	if spec.monitored() {
		t.Header = append(t.Header, "faults", "alerts")
	}
	t.Rows = make([][]string, len(results))
	for i, res := range results {
		s := res.Summary
		row := append(make([]string, 0, len(t.Header)), keys[i]...)
		row = append(row, strconv.Itoa(s.Cores), experiments.Cell(s.BudgetW))
		row = append(row, summaryCells(s)...)
		if spec.monitored() {
			row = append(row, strconv.Itoa(res.Faults), strconv.Itoa(res.Alerts))
		}
		t.Rows[i] = row
	}
	return t, nil
}

// comparisonTable runs every (seed × workload × controller) combination and
// emits one row per run.
func (e *Engine) comparisonTable(spec Spec) (experiments.Table, error) {
	seeds, workloads, controllers := spec.runAxes()
	n := len(seeds) * len(workloads) * len(controllers)
	jobs, keys := make([]sim.Job, 0, n), make([][]string, 0, n)
	for _, seed := range seeds {
		for _, w := range workloads {
			opts, err := spec.Options(seed, w, e.Stack)
			if err != nil {
				return experiments.Table{}, err
			}
			for _, c := range controllers {
				jobs = append(jobs, spec.job(opts, c))
				keys = append(keys, []string{strconv.FormatUint(seed, 10), w, c})
			}
		}
	}
	return runTable(spec, experiments.Table{
		ID:     "RUN",
		Title:  spec.title("comparison"),
		Header: []string{"seed", "workload", "controller"},
		Notes:  spec.tableNotes(),
	}, keys, jobs)
}

// formatSweepValue renders a sweep point exactly as given (shortest
// round-trippable form), so sweep rows are stable across encodings.
func formatSweepValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// applySweep overrides one option from the sweep axis.
func applySweep(opts *sim.Options, param string, v float64) {
	switch param {
	case "budget":
		opts.BudgetW = v
	case "cores":
		opts.Cores = int(v)
	case "epoch":
		opts.EpochS = v
	case "seed":
		opts.Seed = uint64(v)
	}
}

// sweepTable runs every (value × controller) pair of the sweep axis.
func (e *Engine) sweepTable(spec Spec) (experiments.Table, error) {
	seeds, workloads, controllers := spec.runAxes()
	sw := spec.Sweep
	n := len(sw.Values) * len(controllers)
	jobs, keys := make([]sim.Job, 0, n), make([][]string, 0, n)
	for _, v := range sw.Values {
		opts, err := spec.Options(seeds[0], workloads[0], e.Stack)
		if err != nil {
			return experiments.Table{}, err
		}
		applySweep(&opts, sw.Param, v)
		for _, c := range controllers {
			jobs = append(jobs, spec.job(opts, c))
			keys = append(keys, []string{formatSweepValue(v), c})
		}
	}
	return runTable(spec, experiments.Table{
		ID:     "SWEEP",
		Title:  spec.title("sweep (" + sw.Param + ")"),
		Header: []string{sw.Param, "controller"},
		Notes:  append(spec.tableNotes(), "workload "+workloads[0]),
	}, keys, jobs)
}
