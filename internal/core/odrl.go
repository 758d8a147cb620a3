// Package core implements OD-RL, the paper's contribution: On-line
// Distributed Reinforcement Learning DVFS control for power-limited
// many-core systems (Chen & Marculescu, DATE 2015).
//
// The controller is two-level:
//
//   - Fine grain (every control epoch, per core): a tabular RL agent picks
//     the core's VF level. Its state is ⟨power-headroom bucket,
//     memory-boundedness bucket, current level⟩; its reward is normalised
//     throughput minus λ times the core's relative budget overshoot. The
//     agent is model-free: it never predicts power, it learns which levels
//     keep this core fast *and* inside its budget share across the phases
//     it actually experiences.
//
//   - Coarse grain (every K epochs): a global O(n) budget-reallocation pass
//     harvests slack from cores that are not using their share and
//     redistributes it to power-constrained cores, weighted by how
//     compute-bound (and hence frequency-responsive) each one is. This is
//     the only step that needs global communication, which is what makes
//     the scheme two orders of magnitude cheaper than centralized
//     optimisation at hundreds of cores.
package core

import (
	"fmt"
	"time"

	"repro/internal/manycore"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/power"
	"repro/internal/rl"
	"repro/internal/rng"
	"repro/internal/vf"
)

// parallelMinCores is the domain count below which the local phase always
// runs sequentially: one tabular agent update is a few table lookups, so
// goroutine dispatch only pays for itself on large chips.
const parallelMinCores = 128

// Span indices into the controller's phase timer; the names are the
// canonical obs phase constants so harness code can match on them.
const (
	spanLocal = iota
	spanGlobal
	spanComm
)

// Config holds OD-RL hyper-parameters. Zero fields take defaults from
// DefaultConfig.
type Config struct {
	// Lambda weights the overshoot penalty in the reward. Larger values
	// trade throughput for tighter budget compliance (ablated in F9).
	Lambda float64
	// FineEpochsPerRealloc is K, the global reallocation cadence.
	FineEpochsPerRealloc int
	// ReallocMargin is the per-core slack fraction protected from
	// harvesting, so a core keeps breathing room above its current draw.
	ReallocMargin float64
	// HarvestFraction is how much of the unprotected slack each pass
	// moves; below 1.0 it damps oscillation.
	HarvestFraction float64
	// BudgetFloorFrac floors every core's share at this fraction of the
	// equal split. Without a floor, reallocation harvests an idle core's
	// share down to its draw, after which any level increase overshoots
	// and is penalised — the agent can never climb back up.
	BudgetFloorFrac float64
	// HeadroomBuckets and MemBuckets size the state discretisation.
	HeadroomBuckets int
	MemBuckets      int
	// Alpha, Gamma and the epsilon schedule configure the per-core agents.
	Alpha        float64
	Gamma        float64
	EpsilonStart float64
	EpsilonEnd   float64
	EpsilonDecay float64
	// Algorithm selects Q-learning (default) or SARSA for the tabular
	// agents (ablated in F9).
	Algorithm rl.Algorithm
	// TraceLambda is the eligibility-trace decay λ of the
	// function-approximation agents' SARSA(λ). It needs FunctionApprox:
	// New rejects a nonzero value for tabular agents.
	TraceLambda float64
	// DisableRealloc turns the coarse-grain layer off (ablation F9).
	DisableRealloc bool
	// ReallocEMA, when positive, makes the reallocation pass act on an
	// exponentially smoothed view of per-core power (new = α·sample +
	// (1−α)·old with α = ReallocEMA) instead of the last epoch's sample.
	// Fast work/wait oscillation (the F14 barrier workload) otherwise
	// makes budgets chase a regime that has already flipped.
	ReallocEMA float64
	// Workers bounds the goroutines sharding the fine-grain local phase
	// across per-core agents: 0 uses one worker per CPU, 1 forces
	// sequential updates. Each agent owns its state and exploration
	// stream, so parallel updates are bit-identical to sequential; the
	// global reallocation pass always stays sequential, mirroring the
	// paper's local/global split. Sharding engages only for chips of at
	// least 128 control domains.
	Workers int
	// WatchdogEpochs, when positive, arms a per-core telemetry watchdog:
	// after this many consecutive epochs of an exactly repeated (IPS,
	// power) reading — the signature of a stuck sensor or telemetry
	// blackout, which live noisy telemetry never produces — the core falls
	// back to the lowest-power level and its agent stops learning until
	// fresh data arrives. Zero (the default) disables the watchdog and
	// leaves the decision stream byte-identical to prior releases; the
	// harness arms it automatically when a fault plan is active.
	WatchdogEpochs int
	// FunctionApprox replaces the tabular per-core agents with tile-coded
	// linear SARSA(λ), λ = TraceLambda, over the continuous state
	// ⟨headroom, memory-boundedness, level⟩ — no discretisation cliffs,
	// smooth generalisation between neighbouring states (ablated in F9).
	// Algorithm does not apply, and policy persistence
	// (SavePolicy/LoadPolicy) is tabular-only.
	FunctionApprox bool
	// Seed drives exploration.
	Seed uint64
}

// DefaultConfig returns the hyper-parameters used throughout the
// evaluation.
func DefaultConfig() Config {
	return Config{
		Lambda:               4.0,
		FineEpochsPerRealloc: 10,
		ReallocMargin:        0.10,
		HarvestFraction:      0.30,
		BudgetFloorFrac:      0.50,
		HeadroomBuckets:      5,
		MemBuckets:           4,
		Alpha:                0.15,
		Gamma:                0.80,
		EpsilonStart:         0.50,
		EpsilonEnd:           0.02,
		EpsilonDecay:         0.9995,
		Algorithm:            rl.QLearning,
		Seed:                 1,
	}
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Lambda == 0 {
		c.Lambda = d.Lambda
	}
	if c.FineEpochsPerRealloc == 0 {
		c.FineEpochsPerRealloc = d.FineEpochsPerRealloc
	}
	if c.ReallocMargin == 0 {
		c.ReallocMargin = d.ReallocMargin
	}
	if c.HarvestFraction == 0 {
		c.HarvestFraction = d.HarvestFraction
	}
	if c.BudgetFloorFrac == 0 {
		c.BudgetFloorFrac = d.BudgetFloorFrac
	}
	if c.HeadroomBuckets == 0 {
		c.HeadroomBuckets = d.HeadroomBuckets
	}
	if c.MemBuckets == 0 {
		c.MemBuckets = d.MemBuckets
	}
	if c.Alpha == 0 {
		c.Alpha = d.Alpha
	}
	if c.Gamma == 0 {
		c.Gamma = d.Gamma
	}
	if c.EpsilonStart == 0 {
		c.EpsilonStart = d.EpsilonStart
	}
	if c.EpsilonEnd == 0 {
		c.EpsilonEnd = d.EpsilonEnd
	}
	if c.EpsilonDecay == 0 {
		c.EpsilonDecay = d.EpsilonDecay
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	return c
}

// Controller is the OD-RL power manager for one chip.
type Controller struct {
	cfg       Config
	table     *vf.Table
	pwr       power.Params
	fleet     *rl.Fleet         // tabular mode: one agent per core
	linAgents []*rl.LinearAgent // function-approximation mode
	codec     rl.Codec
	headD     rl.Discretizer
	memD      rl.Discretizer
	xScratch  []float64 // continuous-state buffer, FA mode

	budgets    []float64 // per-core power budget shares (W)
	hwFloor    float64   // absolute minimum useful share (bottom level draw)
	minBudget  float64   // active floor for any core's share
	lastBudget float64   // chip budget seen on the previous Decide
	maxIPS     float64   // normalisation constant for the reward
	emaPower   []float64 // smoothed per-core power, ReallocEMA only
	epoch      int
	started    bool

	// dead marks cores the telemetry reports as failed; their budget share
	// is reclaimed by the survivors and they leave the control domain.
	dead  []bool
	alive int

	// Watchdog state, allocated only when WatchdogEpochs > 0. The local
	// phase touches only core-i slots, so its shards stay race-free.
	wdLastIPS    []float64
	wdLastPowerW []float64
	wdStale      []int

	// phases profiles the two control layers separately (claim C4: the
	// fine-grain layer is O(1) per core, only reallocation is global).
	phases *obs.SpanTimer

	// Learning introspection (see learn.go): sink and reusable sample
	// buffer, attached via ctrl.LearnStreamer; nil when off. learnEvery is
	// the sink's requested emit stride in epochs; learnPend counts epochs
	// since the last emit.
	learnSink  obs.LearnSink
	learnBuf   []obs.LearnCoreSample
	learnEvery int
	learnPend  int

	// nextState and reward are the tabular local phase's per-core scratch:
	// each core's discretised state (-1 for a core that sits the epoch
	// out) and reward, written and then read by the shard that owns the
	// core.
	nextState []int32
	reward    []float64

	// Persistent local-phase workers: the pool parks between epochs and
	// the dispatch closure is built once, reading the per-epoch inputs
	// through decTel/decOut, so steady-state Decide allocates nothing.
	pool     *par.Pool
	decideFn func(lo, hi int)
	decTel   *manycore.Telemetry
	decOut   []int

	// reallocW is reallocate's grant-weight scratch. Dead indices are
	// never read (every pass skips them) and live indices are overwritten
	// each call, so reuse is bit-exact.
	reallocW []float64

	// work is the nominal work counted so far (see NominalWork).
	work uint64
}

// Close releases the controller's persistent worker pool, if any. Safe to
// call more than once; a closed controller keeps working sequentially.
func (c *Controller) Close() error {
	if c.pool != nil {
		c.pool.Close()
	}
	return nil
}

// New creates an OD-RL controller for a chip with the given core count,
// VF table and power constants.
func New(cores int, table *vf.Table, pwr power.Params, cfg Config) (*Controller, error) {
	if cores <= 0 {
		return nil, fmt.Errorf("core: invalid core count %d", cores)
	}
	if table == nil {
		return nil, fmt.Errorf("core: nil VF table")
	}
	if err := pwr.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if cfg.Lambda < 0 {
		return nil, fmt.Errorf("core: negative Lambda %g", cfg.Lambda)
	}
	if cfg.FineEpochsPerRealloc < 1 {
		return nil, fmt.Errorf("core: FineEpochsPerRealloc must be >= 1, got %d", cfg.FineEpochsPerRealloc)
	}
	if cfg.ReallocMargin < 0 || cfg.ReallocMargin >= 1 {
		return nil, fmt.Errorf("core: ReallocMargin must be in [0,1), got %g", cfg.ReallocMargin)
	}
	if cfg.HarvestFraction <= 0 || cfg.HarvestFraction > 1 {
		return nil, fmt.Errorf("core: HarvestFraction must be in (0,1], got %g", cfg.HarvestFraction)
	}
	if cfg.BudgetFloorFrac < 0 || cfg.BudgetFloorFrac >= 1 {
		return nil, fmt.Errorf("core: BudgetFloorFrac must be in [0,1), got %g", cfg.BudgetFloorFrac)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("core: negative worker count %d", cfg.Workers)
	}
	if cfg.WatchdogEpochs < 0 {
		return nil, fmt.Errorf("core: negative WatchdogEpochs %d", cfg.WatchdogEpochs)
	}
	if cfg.TraceLambda != 0 && !cfg.FunctionApprox {
		return nil, fmt.Errorf("core: TraceLambda %g needs FunctionApprox (tabular agents have no traces)", cfg.TraceLambda)
	}

	codec := rl.MustCodec(cfg.HeadroomBuckets, cfg.MemBuckets, table.Levels())
	rlCfg := rl.Config{
		States:       codec.States(),
		Actions:      table.Levels(),
		Alpha:        cfg.Alpha,
		Gamma:        cfg.Gamma,
		Algorithm:    cfg.Algorithm,
		EpsilonStart: cfg.EpsilonStart,
		EpsilonEnd:   cfg.EpsilonEnd,
		EpsilonDecay: cfg.EpsilonDecay,
		// Optimistic initialisation: the best sustained reward is roughly
		// perf_max/(1−γ); starting near it makes every agent try each
		// action in the states it actually visits before settling.
		InitialQ: 2.0,
	}
	base := rng.New(cfg.Seed)
	var fleet *rl.Fleet
	var linAgents []*rl.LinearAgent
	if cfg.FunctionApprox {
		// Continuous state: headroom in [-0.5, 0.5], memory-boundedness in
		// [0, 1], level normalised to [0, 1]; 8 tiles per dim, 4 tilings.
		coder, err := rl.NewTileCoder(
			[]float64{-0.5, 0, 0},
			[]float64{0.5, 1, 1},
			8, 4)
		if err != nil {
			return nil, err
		}
		linCfg := rl.LinearConfig{
			Actions:      table.Levels(),
			Alpha:        cfg.Alpha,
			Gamma:        cfg.Gamma,
			Lambda:       cfg.TraceLambda,
			EpsilonStart: cfg.EpsilonStart,
			EpsilonEnd:   cfg.EpsilonEnd,
			EpsilonDecay: cfg.EpsilonDecay,
		}
		linAgents = make([]*rl.LinearAgent, cores)
		for i := range linAgents {
			a, err := rl.NewLinearAgent(coder, linCfg, base.Split())
			if err != nil {
				return nil, err
			}
			linAgents[i] = a
		}
	} else {
		var err error
		if fleet, err = rl.NewFleet(rlCfg, cores, base); err != nil {
			return nil, err
		}
	}

	minOp := table.Min()
	c := &Controller{
		cfg:       cfg,
		table:     table,
		pwr:       pwr,
		fleet:     fleet,
		linAgents: linAgents,
		codec:     codec,
		headD:     rl.MustDiscretizer(-0.5, 0.5, cfg.HeadroomBuckets),
		memD:      rl.MustDiscretizer(0, 1, cfg.MemBuckets),
		// A core's share can never usefully drop below its draw at the
		// bottom level with modest activity; initBudgets raises this to a
		// fraction of the equal split once the budget is known.
		hwFloor: pwr.CoreW(minOp.VoltageV, minOp.FreqHz, 0.2, 330),
		budgets: make([]float64, cores),
		// Reward normalisation: the fastest plausible core, ~2 IPC at fmax.
		maxIPS:   2 * table.Max().FreqHz,
		phases:   obs.NewSpanTimer(obs.PhaseLocal, obs.PhaseGlobal, obs.PhaseComm),
		dead:     make([]bool, cores),
		alive:    cores,
		reallocW: make([]float64, cores),
	}
	if fleet != nil {
		c.nextState = make([]int32, cores)
		c.reward = make([]float64, cores)
	}
	if cfg.WatchdogEpochs > 0 {
		c.wdLastIPS = make([]float64, cores)
		c.wdLastPowerW = make([]float64, cores)
		c.wdStale = make([]int, cores)
	}
	return c, nil
}

// Name implements ctrl.Controller.
func (c *Controller) Name() string {
	switch {
	case c.cfg.DisableRealloc:
		return "od-rl-norealloc"
	case c.cfg.FunctionApprox:
		return "od-rl-fa"
	default:
		return "od-rl"
	}
}

// Budgets returns a copy of the current per-core budget shares, exposed for
// experiments that inspect the reallocation layer.
func (c *Controller) Budgets() []float64 {
	out := make([]float64, len(c.budgets))
	copy(out, c.budgets)
	return out
}

// initBudgets splits the core-level budget equally and sets the share
// floor: the larger of the hardware floor and BudgetFloorFrac of the equal
// split (never above the split itself, so the floors always fit the total).
func (c *Controller) initBudgets(chipBudgetW float64) {
	total := c.coreBudgetTotal(chipBudgetW)
	share := total / float64(c.alive)
	for i := range c.budgets {
		c.budgets[i] = share
	}
	c.setFloor(total)
	c.lastBudget = chipBudgetW
}

// setFloor recomputes the per-core share floor for the current alive
// population and core-level budget total.
func (c *Controller) setFloor(total float64) {
	n := c.alive
	if n <= 0 {
		n = len(c.budgets)
	}
	share := total / float64(n)
	c.minBudget = c.cfg.BudgetFloorFrac * share
	if c.minBudget < c.hwFloor {
		c.minBudget = c.hwFloor
	}
	if c.minBudget > share {
		c.minBudget = share
	}
}

// retireCore permanently removes a failed core from the control domain:
// its remaining budget share is split across the survivors and the share
// floor is recomputed for the smaller population.
func (c *Controller) retireCore(i int) {
	c.dead[i] = true
	c.alive--
	freed := c.budgets[i]
	c.budgets[i] = 0
	if c.alive <= 0 {
		return
	}
	c.setFloor(c.coreBudgetTotal(c.lastBudget))
	add := freed / float64(c.alive)
	for j := range c.budgets {
		if !c.dead[j] {
			c.budgets[j] += add
		}
	}
}

// finiteOr returns x, or fallback when x is NaN or infinite — telemetry
// corrupted by sensor faults must never reach the Q-tables or the budget
// arithmetic.
func finiteOr(x, fallback float64) float64 {
	if x-x == 0 { // false for NaN and ±Inf, whose difference is NaN
		return x
	}
	return fallback
}

// coreBudgetTotal is the chip budget minus the uncore floor, never below a
// tiny positive amount so ratios stay finite even for absurd budgets.
func (c *Controller) coreBudgetTotal(chipBudgetW float64) float64 {
	t := chipBudgetW - c.pwr.UncoreW
	min := c.hwFloor * float64(len(c.budgets)) * 0.1
	if t < min {
		t = min
	}
	return t
}

// numCores returns the number of control domains.
func (c *Controller) numCores() int {
	if c.linAgents != nil {
		return len(c.linAgents)
	}
	return c.fleet.Len()
}

// Decide implements ctrl.Controller.
//
//odrl:hotpath
func (c *Controller) Decide(tel *manycore.Telemetry, budgetW float64, out []int) {
	n := c.numCores()
	if len(tel.Cores) != n || len(out) != n {
		panic(fmt.Sprintf("core: telemetry for %d cores, out %d, controller has %d",
			len(tel.Cores), len(out), n))
	}
	if !c.started {
		c.initBudgets(budgetW)
	} else if budgetW != c.lastBudget {
		// Budget moved (e.g. a datacentre cap event): rescale every share
		// and recompute the floor for the new total.
		scale := c.coreBudgetTotal(budgetW) / c.coreBudgetTotal(c.lastBudget)
		c.setFloor(c.coreBudgetTotal(budgetW))
		for i := range c.budgets {
			if c.dead[i] {
				continue // a dead core's share stays reclaimed
			}
			c.budgets[i] *= scale
			if c.budgets[i] < c.minBudget {
				c.budgets[i] = c.minBudget
			}
		}
		c.lastBudget = budgetW
	}
	for i := range tel.Cores {
		if tel.Cores[i].Dead && !c.dead[i] {
			c.retireCore(i)
		}
	}
	c.work += uint64(c.alive * c.table.Levels())

	// Fine-grain local phase: every agent update touches only its own
	// Q-table/weights, exploration stream and out[i] slot, so the loop
	// shards across workers with bit-identical results (claim C4: this
	// layer is embarrassingly parallel; only reallocation is global). The
	// phase span records the wall-clock of the whole sharded section.
	localStart := time.Now() //odrl:allow wallclock phase-span telemetry probe; never feeds control decisions
	// Warm the shared ε memo before any worker reads it.
	if c.fleet != nil {
		c.fleet.WarmEpsilon(c.dead)
	}
	if workers := c.localWorkers(n); workers > 1 {
		if c.pool == nil {
			c.pool = par.NewPool(workers)
			// One closure for the controller's lifetime; per-epoch inputs
			// travel through decTel/decOut so dispatch allocates nothing.
			c.decideFn = func(lo, hi int) {
				var x []float64
				if c.linAgents != nil {
					x = make([]float64, 3) // per-chunk FA state scratch
				}
				c.localRange(lo, hi, c.decTel, c.decOut, x)
			}
		}
		c.decTel, c.decOut = tel, out
		c.pool.ForEachChunk(n, c.decideFn)
		c.decTel, c.decOut = nil, nil
	} else {
		if c.linAgents != nil && c.xScratch == nil {
			c.xScratch = make([]float64, 3)
		}
		c.localRange(0, n, tel, out, c.xScratch)
	}
	c.phases.ObserveSince(spanLocal, localStart)
	c.started = true
	c.epoch++

	if a := c.cfg.ReallocEMA; a > 0 {
		if c.emaPower == nil {
			c.emaPower = make([]float64, n)
			for i := range c.emaPower {
				c.emaPower[i] = tel.Cores[i].PowerW
			}
		} else {
			for i := range c.emaPower {
				c.emaPower[i] = a*tel.Cores[i].PowerW + (1-a)*c.emaPower[i]
			}
		}
	}

	if !c.cfg.DisableRealloc && c.epoch%c.cfg.FineEpochsPerRealloc == 0 {
		globalStart := time.Now() //odrl:allow wallclock phase-span telemetry probe; never feeds control decisions
		c.work += uint64(c.reallocate(tel, budgetW) * c.alive)
		c.phases.ObserveSince(spanGlobal, globalStart)
	}

	if c.learnSink != nil {
		c.learnPend++
		if c.learnPend >= c.learnEvery {
			c.emitLearn(c.learnPend)
			c.learnPend = 0
		}
	}
}

// NominalWork implements ctrl.WorkCounter: each epoch every live agent
// chooses from one Q-row of levels values, and a reallocation pass visits
// every live core once per loop it runs. The count is added once per
// Decide, never per core, so the sharded local phase does not touch it.
func (c *Controller) NominalWork() uint64 { return c.work }

// PhaseTimes implements ctrl.PhaseProfiler.
func (c *Controller) PhaseTimes() []obs.PhaseTime { return c.phases.Snapshot() }

// ResetPhaseTimes implements ctrl.PhaseProfiler.
func (c *Controller) ResetPhaseTimes() { c.phases.Reset() }

// SetSpanSink implements ctrl.SpanStreamer: phase spans stream to s as
// they complete (nil detaches).
func (c *Controller) SetSpanSink(s obs.SpanSink) { c.phases.SetSink(s) }

// reallocPower returns the power view the reallocation pass acts on.
func (c *Controller) reallocPower(tel *manycore.Telemetry, i int) float64 {
	if c.emaPower != nil {
		return c.emaPower[i]
	}
	return tel.Cores[i].PowerW
}

// localWorkers returns the goroutine count for the fine-grain phase.
func (c *Controller) localWorkers(n int) int {
	if n < parallelMinCores || c.cfg.Workers == 1 {
		return 1
	}
	return par.Workers(c.cfg.Workers, n)
}

// localRange runs the fine-grain agents of cores [lo, hi) and writes
// their next levels to out. x is the FA-mode continuous-state scratch
// buffer (one per calling goroutine; unused in tabular mode). It touches
// only the slots of cores in its range, which is what licenses sharding
// the local phase.
//
// In tabular mode it is one fused pass: each core's state and reward land
// in the per-core scratch, then one Fleet call steps every agent of the
// range. A core that is dead, or held by the telemetry watchdog, gets the
// bottom level and its agent sits the epoch out.
//
//odrl:hotpath
func (c *Controller) localRange(lo, hi int, tel *manycore.Telemetry, out []int, x []float64) {
	if c.linAgents != nil {
		for i := lo; i < hi; i++ {
			out[i] = c.decideFA(i, tel, x)
		}
		return
	}
	// Locals, so the stores below do not force reloads through c.
	next, reward, budgets := c.nextState, c.reward, c.budgets
	codec, headD, memD := c.codec, c.headD, c.memD
	for i := lo; i < hi; i++ {
		ct := &tel.Cores[i]
		if c.held(i, ct) {
			next[i], out[i] = -1, 0
			continue
		}
		// The state: ⟨headroom bucket, memory-boundedness bucket, level⟩.
		b := budgets[i]
		headroom := 0.0
		if b > 0 {
			headroom = finiteOr((b-ct.PowerW)/b, 0)
		}
		next[i] = int32(codec.Encode3(
			headD.Bucket(headroom),
			memD.Bucket(finiteOr(ct.MemBoundedness, 0)),
			ct.Level,
		))
		reward[i] = c.rewardOf(ct, b)
	}
	if !c.started {
		c.fleet.Begin(lo, hi, next, out)
	} else {
		c.fleet.Step(lo, hi, next, reward, out)
	}
}

// decideFA runs core i's function-approximation agent and returns its next
// level; a held core gets the bottom level and its agent is left alone.
//
//odrl:hotpath
func (c *Controller) decideFA(i int, tel *manycore.Telemetry, x []float64) int {
	ct := &tel.Cores[i]
	if c.held(i, ct) {
		return 0
	}
	s := c.contStateOf(ct, c.budgets[i], x)
	if !c.started {
		return c.linAgents[i].Begin(s)
	}
	return c.linAgents[i].Step(c.rewardOf(ct, c.budgets[i]), s)
}

// held reports whether core i sits this epoch out. A failed core is out of
// the control domain. A core whose telemetry the watchdog finds provably
// stale must not teach its agent from a phase that may be long gone; it
// falls back to the lowest-power level until fresh readings return.
//
//odrl:hotpath
func (c *Controller) held(i int, ct *manycore.CoreTelemetry) bool {
	return c.dead[i] || c.wdStale != nil && c.watchdogStale(i, ct)
}

// watchdogStale advances core i's watchdog and reports whether it has
// tripped. The trigger is an exactly repeated (IPS, power) pair for
// WatchdogEpochs consecutive epochs: live telemetry carries continuous
// sensor noise, so exact repeats only happen when the sensor path serves
// stale data (stuck sensor or blackout). Only core-i slots are touched,
// keeping the sharded local phase race-free.
//
//odrl:hotpath
func (c *Controller) watchdogStale(i int, ct *manycore.CoreTelemetry) bool {
	if c.started && ct.IPS == c.wdLastIPS[i] && ct.PowerW == c.wdLastPowerW[i] {
		c.wdStale[i]++
	} else {
		c.wdStale[i] = 0
	}
	c.wdLastIPS[i], c.wdLastPowerW[i] = ct.IPS, ct.PowerW
	return c.wdStale[i] >= c.cfg.WatchdogEpochs
}

// contStateOf builds the continuous state vector for FA mode into x (len
// 3); LinearAgent copies what it needs.
//
//odrl:hotpath
func (c *Controller) contStateOf(ct *manycore.CoreTelemetry, budget float64, x []float64) []float64 {
	headroom := 0.0
	if budget > 0 {
		headroom = finiteOr((budget-ct.PowerW)/budget, 0)
	}
	levels := float64(c.table.Levels() - 1)
	x[0] = headroom
	x[1] = finiteOr(ct.MemBoundedness, 0)
	x[2] = float64(ct.Level) / levels
	return x
}

// rewardOf scores the epoch that just finished for one core.
//
//odrl:hotpath
func (c *Controller) rewardOf(ct *manycore.CoreTelemetry, budget float64) float64 {
	perf := finiteOr(ct.IPS/c.maxIPS, 0)
	overshoot := 0.0
	if budget > 0 && ct.PowerW > budget {
		overshoot = finiteOr((ct.PowerW-budget)/budget, 0)
	}
	return perf - c.cfg.Lambda*overshoot
}

// reallocate is the coarse-grain O(n) budget redistribution pass. Dead
// cores are outside the budget domain: they are skipped in every pass and
// the share floor and totals are computed over the surviving population.
// It returns how many loops over the cores it ran, for NominalWork.
//
//odrl:hotpath
func (c *Controller) reallocate(tel *manycore.Telemetry, budgetW float64) int {
	n := len(c.budgets)
	alive := float64(c.alive)
	if c.alive <= 0 {
		return 0
	}
	total := c.coreBudgetTotal(budgetW)

	// Pass 1: harvest unprotected slack from under-consuming cores. A
	// non-finite power reading is treated as the core using its full
	// share — stale garbage must not look like harvestable slack.
	pool := 0.0
	for i := 0; i < n; i++ {
		if c.dead[i] {
			continue
		}
		used := finiteOr(c.reallocPower(tel, i), c.budgets[i])
		margin := c.cfg.ReallocMargin * c.budgets[i]
		slack := c.budgets[i] - used - margin
		if slack > 0 {
			h := c.cfg.HarvestFraction * slack
			if c.budgets[i]-h < c.minBudget {
				h = c.budgets[i] - c.minBudget
			}
			if h > 0 {
				c.budgets[i] -= h
				pool += h
			}
		}
	}
	if pool <= 0 {
		return 1 // harvest
	}

	// Pass 2: grant the pool with weights favouring power-constrained,
	// compute-bound cores — a memory-bound core gains little from more
	// frequency, so its claim on the pool is weak. Unconstrained cores
	// keep a small weight so the distribution stays smooth rather than
	// oscillating between harvest and grant.
	weightSum := 0.0
	weights := c.reallocW
	for i := 0; i < n; i++ {
		if c.dead[i] {
			continue
		}
		used := finiteOr(c.reallocPower(tel, i), c.budgets[i])
		margin := c.cfg.ReallocMargin * c.budgets[i]
		w := 0.05
		if used >= c.budgets[i]-margin {
			w = (1 - finiteOr(tel.Cores[i].MemBoundedness, 0)) + 0.1
		}
		weights[i] = w
		weightSum += w
	}
	for i := 0; i < n; i++ {
		if c.dead[i] {
			continue
		}
		c.budgets[i] += pool * weights[i] / weightSum
	}

	// Pass 3: restore the invariant Σ budgets = total exactly while
	// respecting the per-core floor: the excess above the floor is scaled
	// proportionally so harvest arithmetic can never drift the aggregate
	// cap or starve a core below the floor.
	floorTotal := c.minBudget * alive
	if total <= floorTotal {
		share := total / alive
		for i := range c.budgets {
			if c.dead[i] {
				continue
			}
			c.budgets[i] = share
		}
		return 4 // harvest, weigh, grant, equal split
	}
	excessTotal := 0.0
	for i, b := range c.budgets {
		if c.dead[i] {
			continue
		}
		e := b - c.minBudget
		if e > 0 {
			excessTotal += e
		}
	}
	target := total - floorTotal
	if excessTotal <= 0 {
		share := target / alive
		for i := range c.budgets {
			if c.dead[i] {
				continue
			}
			c.budgets[i] = c.minBudget + share
		}
		return 5 // harvest, weigh, grant, excess, floor split
	}
	scale := target / excessTotal
	for i := range c.budgets {
		if c.dead[i] {
			continue
		}
		e := c.budgets[i] - c.minBudget
		if e < 0 {
			e = 0
		}
		c.budgets[i] = c.minBudget + e*scale
	}
	return 5 // harvest, weigh, grant, excess, rescale
}

// CommPerEpoch implements ctrl.Controller: fine-grain decisions are purely
// local; only the reallocation pass (every K epochs) gathers telemetry and
// scatters budgets, so its cost is amortised by K.
func (c *Controller) CommPerEpoch(m *noc.Mesh) noc.Cost {
	commStart := time.Now() //odrl:allow wallclock phase-span telemetry probe; never feeds control decisions
	defer func() { c.phases.ObserveSince(spanComm, commStart) }()
	if c.cfg.DisableRealloc {
		return noc.Cost{}
	}
	g := m.GatherCost(m.Center())
	s := m.ScatterCost(m.Center())
	k := float64(c.cfg.FineEpochsPerRealloc)
	return noc.Cost{
		LatencyS: (g.LatencyS + s.LatencyS) / k,
		EnergyJ:  (g.EnergyJ + s.EnergyJ) / k,
	}
}
