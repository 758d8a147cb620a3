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
	return e.run(spec)
}

// run is Run past validation: the cache lookup, the execution and the
// cache store.
func (e *Engine) run(spec Spec) (experiments.Table, RunInfo, error) {
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

// execute dispatches on the run kind: a comparison or sweep runs its run
// list, and an experiment its runner. A grid experiment (F2–F4, CLAIMS)
// reduces the engine's grid for its axes at each of its seeds instead of
// running its own.
func (e *Engine) execute(spec Spec) (experiments.Table, error) {
	if spec.Experiment == "" {
		return e.table(spec)
	}
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
	return e.grid(spec)
}

// grid is Grid past validation.
func (e *Engine) grid(spec Spec) (experiments.Grid, error) {
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
// everywhere a spec is read; any other value passes as written, for
// sim.Options.Validate to judge.
func (s Spec) Options(seed uint64, workloadName string, stack sim.Stack) (sim.Options, error) {
	opts := sim.DefaultOptions()
	opts.Stack = stack
	opts.Workload = workloadName
	opts.Seed = seed
	opts.Workers = s.Workers
	if s.Cores != 0 {
		opts.Cores = s.Cores
	}
	if s.BudgetW != 0 {
		opts.BudgetW = s.BudgetW
	}
	if s.EpochS != 0 {
		opts.EpochS = s.EpochS
	}
	if s.WarmupS != 0 {
		opts.WarmupS = s.WarmupS
	}
	if s.MeasureS != 0 {
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

// point is one configuration of the spec's run list: the options its runs
// share and the cells that key their table rows.
type point struct {
	opts sim.Options
	key  []string
}

// points is the spec's run list, one point per configuration, reporting to
// stack: each seed × workload of a comparison, or each value of a sweep, in
// table order. The engine runs every point once per controller, point-major,
// and Validate checks every point through sim.Options.Validate. An
// experiment spec's points hold the shared axes its runner starts every
// run from, one per seed × benchmark.
func (s Spec) points(stack sim.Stack) ([]point, error) {
	seeds, workloads, _ := s.runAxes()
	var points []point
	for _, seed := range seeds {
		for _, w := range workloads {
			opts, err := s.Options(seed, w, stack)
			if err != nil {
				return nil, err
			}
			if s.Sweep == nil {
				points = append(points, point{opts, []string{strconv.FormatUint(seed, 10), w}})
				continue
			}
			// A sweep runs one seed on one workload.
			for _, v := range s.Sweep.Values {
				p := point{opts, []string{formatSweepValue(v)}}
				applySweep(&p.opts, s.Sweep.Param, v)
				points = append(points, p)
			}
		}
	}
	return points, nil
}

// table runs a comparison or sweep spec's run list and renders the engine's
// table, one row per run: its point's key cells and its controller, then
// the run's cores, budget and summary columns, and the fault and alert
// counts when the spec is monitored. Rows follow the run list, so the
// table is identical for any worker count.
func (e *Engine) table(spec Spec) (experiments.Table, error) {
	points, err := spec.points(e.Stack)
	if err != nil {
		return experiments.Table{}, err
	}
	_, workloads, controllers := spec.runAxes()
	jobs := make([]sim.Job, 0, len(points)*len(controllers))
	for _, p := range points {
		for _, c := range controllers {
			jobs = append(jobs, spec.job(p.opts, c))
		}
	}
	results, err := sim.RunJobs(spec.Workers, jobs)
	if err != nil {
		return experiments.Table{}, fmt.Errorf("scenario: %w", err)
	}
	t := experiments.Table{
		ID:     "RUN",
		Title:  spec.title("comparison"),
		Header: []string{"seed", "workload"},
		Notes:  spec.tableNotes(),
	}
	if sw := spec.Sweep; sw != nil {
		t.ID, t.Title, t.Header = "SWEEP", spec.title("sweep ("+sw.Param+")"), []string{sw.Param}
		t.Notes = append(t.Notes, "workload "+workloads[0])
	}
	t.Header = append(append(t.Header, "controller", "cores", "budget(W)"), summaryHeader...)
	if spec.monitored() {
		t.Header = append(t.Header, "faults", "alerts")
	}
	t.Rows = make([][]string, len(results))
	for i, res := range results {
		s := res.Summary
		row := append(make([]string, 0, len(t.Header)), points[i/len(controllers)].key...)
		row = append(row, jobs[i].Controller, strconv.Itoa(s.Cores), experiments.Cell(s.BudgetW))
		row = append(row, summaryCells(s)...)
		if spec.monitored() {
			row = append(row, strconv.Itoa(res.Faults), strconv.Itoa(res.Alerts))
		}
		t.Rows[i] = row
	}
	return t, nil
}
