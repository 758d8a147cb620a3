package scenario

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/obs/monitor"
	"repro/internal/par"
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

// rules returns the alert rules one run evaluates: the spec's own, or —
// for fault runs without explicit rules — the deterministic claim-invariant
// defaults, so the alerts column stays a pure function of the epoch stream.
func (s Spec) rules(budgetW, epochS float64) []monitor.Rule {
	if len(s.AlertRules) > 0 {
		return s.AlertRules
	}
	return monitor.DeterministicDefaultRules(budgetW, epochS)
}

// runOutcome is one finished run of a comparison or sweep table.
type runOutcome struct {
	s      metrics.Summary
	faults int
	alerts int
}

// runOne executes one (options × controller) run, with a per-run monitor
// when the spec asks for one.
func runOne(spec Spec, opts sim.Options, controller string) (runOutcome, error) {
	var (
		res sim.Result
		h   monitor.RunHealth
		err error
	)
	if spec.monitored() {
		res, h, err = sim.RunMonitored(opts, controller, spec.rules(opts.BudgetW, opts.EpochS))
	} else {
		res, err = sim.RunNamed(opts, controller)
	}
	if err != nil {
		return runOutcome{}, fmt.Errorf("scenario: %s on %s: %w", controller, opts.Workload, err)
	}
	return runOutcome{s: res.Summary, faults: h.Faults, alerts: h.AlertCount}, nil
}

// cell formats a float compactly, matching experiments table cells.
func cell(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000 || v < 0.01:
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// summaryCells renders the deterministic summary columns every engine table
// shares. Wall-clock metrics (controller compute time) are deliberately
// excluded: engine tables must be byte-stable so cached and fresh runs
// compare equal.
func summaryCells(s metrics.Summary) []string {
	return []string{
		cell(s.BIPS()), cell(s.MeanW), cell(s.PeakW),
		cell(s.OverJ), cell(100 * s.OverTimeFrac()), cell(s.EnergyEff()),
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

// comparisonTable runs every (seed × workload × controller) combination and
// emits one row per run. Rows land in index-addressed slots, so the table
// is identical for any worker count.
func (e *Engine) comparisonTable(spec Spec) (experiments.Table, error) {
	seeds, workloads, controllers := spec.runAxes()
	type job struct {
		seed       uint64
		workload   string
		controller string
	}
	jobs := make([]job, 0, len(seeds)*len(workloads)*len(controllers))
	for _, seed := range seeds {
		for _, w := range workloads {
			for _, c := range controllers {
				jobs = append(jobs, job{seed, w, c})
			}
		}
	}
	outcomes, err := par.MapErr(spec.Workers, len(jobs), func(i int) (runOutcome, error) {
		j := jobs[i]
		opts, err := spec.Options(j.seed, j.workload, e.Stack)
		if err != nil {
			return runOutcome{}, err
		}
		return runOne(spec, opts, j.controller)
	})
	if err != nil {
		return experiments.Table{}, err
	}

	t := experiments.Table{
		ID:     "RUN",
		Title:  spec.title("comparison"),
		Header: append([]string{"seed", "workload", "controller", "cores", "budget(W)"}, summaryHeader...),
		Notes:  spec.tableNotes(),
	}
	if spec.monitored() {
		t.Header = append(t.Header, "faults", "alerts")
	}
	for i, j := range jobs {
		o := outcomes[i]
		row := append([]string{
			strconv.FormatUint(j.seed, 10), j.workload, j.controller,
			strconv.Itoa(o.s.Cores), cell(o.s.BudgetW),
		}, summaryCells(o.s)...)
		if spec.monitored() {
			row = append(row, strconv.Itoa(o.faults), strconv.Itoa(o.alerts))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
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
	type job struct {
		value      float64
		controller string
	}
	jobs := make([]job, 0, len(sw.Values)*len(controllers))
	for _, v := range sw.Values {
		for _, c := range controllers {
			jobs = append(jobs, job{v, c})
		}
	}
	outcomes, err := par.MapErr(spec.Workers, len(jobs), func(i int) (runOutcome, error) {
		j := jobs[i]
		opts, err := spec.Options(seeds[0], workloads[0], e.Stack)
		if err != nil {
			return runOutcome{}, err
		}
		applySweep(&opts, sw.Param, j.value)
		return runOne(spec, opts, j.controller)
	})
	if err != nil {
		return experiments.Table{}, err
	}

	t := experiments.Table{
		ID:     "SWEEP",
		Title:  spec.title("sweep (" + sw.Param + ")"),
		Header: append([]string{sw.Param, "controller", "cores", "budget(W)"}, summaryHeader...),
		Notes:  append(spec.tableNotes(), "workload "+workloads[0]),
	}
	if spec.monitored() {
		t.Header = append(t.Header, "faults", "alerts")
	}
	for i, j := range jobs {
		o := outcomes[i]
		row := append([]string{
			formatSweepValue(j.value), j.controller,
			strconv.Itoa(o.s.Cores), cell(o.s.BudgetW),
		}, summaryCells(o.s)...)
		if spec.monitored() {
			row = append(row, strconv.Itoa(o.faults), strconv.Itoa(o.alerts))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
