package sim

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/config"
	"repro/internal/ctrl"
	"repro/internal/fault"
	"repro/internal/manycore"
	"repro/internal/metrics"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/obs/learn"
	"repro/internal/obs/monitor"
	"repro/internal/par"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/variation"
	"repro/internal/workload"
)

// TracePoint is one decimated sample of the measured power trace.
type TracePoint struct {
	TimeS    float64
	PowerW   float64
	BudgetW  float64
	MaxTempK float64
}

// Result is one finished run.
type Result struct {
	Summary metrics.Summary
	// Trace is the decimated power trace (empty unless TracePoints > 0).
	Trace []TracePoint
	// FinalLevels is the VF assignment at the end of the run.
	FinalLevels []int
	// Faults and Alerts count the injected fault events and the fired
	// alerts of a job run with Rules (see Job); both are 0 otherwise.
	Faults, Alerts int
}

// buildSources constructs per-core workload sources per the options.
func buildSources(opts Options, r *rng.RNG) ([]workload.Source, error) {
	if opts.Workload == "barrier" {
		// A bulk-synchronous app across all cores: compute-heavy work
		// phases, ~20% lane imbalance, a superstep quota of roughly 8 ms
		// of work at the top operating point.
		work := workload.Phase{
			Class: workload.Compute, BaseCPI: 0.85, MPKI: 2.0,
			MemLatencyNs: 75, Activity: 0.9,
		}
		app, err := workload.NewBarrierApp(opts.Cores, work, 30e6, 0.2, r.Split())
		if err != nil {
			return nil, err
		}
		sources := make([]workload.Source, opts.Cores)
		for i := range sources {
			sources[i] = app.Lane(i)
		}
		return sources, nil
	}
	var specs []workload.Spec
	if opts.Workload == "mix" {
		for _, name := range workload.PresetNames() {
			specs = append(specs, workload.MustPreset(name))
		}
	} else {
		s, err := workload.Preset(opts.Workload)
		if err != nil {
			return nil, err
		}
		specs = []workload.Spec{s}
	}
	// scaleJitter spreads per-core workload heaviness by ±10%.
	const scaleJitter = 0.1
	sources := make([]workload.Source, opts.Cores)
	for i := range sources {
		scale := 1 + scaleJitter*(2*r.Float64()-1)
		p, err := workload.NewScaledProcess(specs[i%len(specs)], r.Split(), scale)
		if err != nil {
			return nil, err
		}
		sources[i] = p
	}
	return sources, nil
}

// NewChip assembles the chip and mesh an options set describes, without
// running anything. Experiments that need custom epoch loops (convergence
// tracking, interactive drivers) build on this.
func NewChip(opts Options) (*manycore.Chip, *noc.Mesh, error) {
	if err := opts.Validate(); err != nil {
		return nil, nil, err
	}
	w, h, err := GridFor(opts.Cores)
	if err != nil {
		return nil, nil, err
	}
	plat := config.Default()
	if opts.Platform != nil {
		plat = *opts.Platform
	}
	table, err := plat.VFTable()
	if err != nil {
		return nil, nil, err
	}
	base := rng.New(opts.Seed)
	sources, err := buildSources(opts, base.Split())
	if err != nil {
		return nil, nil, err
	}
	cfg := manycore.Config{
		Width:              w,
		Height:             h,
		VF:                 table,
		Power:              plat.Power,
		Thermal:            plat.Thermal,
		ThermalEnabled:     !opts.ThermalOff,
		SensorNoise:        opts.SensorNoise,
		TransitionPenaltyS: plat.TransitionPenaltyS,
		InitialLevel:       0,
		IslandW:            opts.IslandW,
		IslandH:            opts.IslandH,
		Workers:            opts.Workers,
	}
	if opts.Variation != nil {
		vmap, err := variation.Generate(w, h, *opts.Variation)
		if err != nil {
			return nil, nil, err
		}
		cfg.Variation = vmap
	}
	if opts.BigLittle {
		cfg.CoreTypes = manycore.BigLittleTypes()
		cfg.TypeOf = make([]int, w*h)
		for i := range cfg.TypeOf {
			if i%w >= w/2 {
				cfg.TypeOf[i] = 1 // little cores on the right half
			}
		}
	}
	chip, err := manycore.New(cfg, sources, base.Split())
	if err != nil {
		return nil, nil, err
	}
	mesh, err := noc.New(w, h, plat.NoC)
	if err != nil {
		return nil, nil, err
	}
	return chip, mesh, nil
}

// Run executes one simulation with the given controller and returns its
// measured summary. The controller is driven every epoch over warmup and
// measurement; metrics cover the measurement window only.
func Run(opts Options, c ctrl.Controller) (Result, error) {
	if c == nil {
		return Result{}, fmt.Errorf("sim: nil controller")
	}
	chip, mesh, err := NewChip(opts)
	if err != nil {
		return Result{}, err
	}
	// The chip owns persistent shard workers that park between epochs;
	// release them with the run. The controller is caller-owned (it may be
	// inspected or reused after the run), so its pool is the caller's to
	// close — RunJobs closes the controllers it builds itself.
	defer chip.Close()
	cfg := chip.Config()

	warmupEpochs, measureEpochs := opts.Epochs()
	totalEpochs := warmupEpochs + measureEpochs

	// The injector's hooks and per-epoch draws all run on this sequential
	// loop, so the fault realisation is independent of opts.Workers.
	var inj *fault.Injector
	if p := opts.FaultPlan; p != nil && !p.Zero() {
		inj, err = fault.NewInjector(*p, opts.Cores, float64(totalEpochs)*opts.EpochS, opts.Seed)
		if err != nil {
			return Result{}, err
		}
		chip.SetTelemetryFilter(inj)
		chip.SetActuationFilter(inj)
	}

	traceEvery := 0
	if opts.TracePoints > 0 {
		// Ceiling division: a floor stride records up to nearly twice the
		// requested point count when TracePoints does not divide
		// measureEpochs; rounding the stride up keeps len(trace) within
		// the request.
		traceEvery = (measureEpochs + opts.TracePoints - 1) / opts.TracePoints
		if traceEvery < 1 {
			traceEvery = 1
		}
	}

	observer := opts.Observer
	if mon := opts.Monitor; mon != nil {
		// The monitor is teed in last, so its alerts follow the epoch they
		// name.
		observer = mon.Wrap(observer)
	}
	if opts.SpanSink != nil {
		if ss, ok := c.(ctrl.SpanStreamer); ok {
			ss.SetSpanSink(opts.SpanSink)
			defer ss.SetSpanSink(nil)
		}
	}
	meta := obs.RunMeta{
		Controller: c.Name(),
		Workload:   opts.Workload,
		Cores:      opts.Cores,
		BudgetW:    opts.BudgetW,
		EpochS:     opts.EpochS,
		Seed:       opts.Seed,
	}
	if inj != nil {
		meta.FaultPlan = opts.FaultPlan.ID()
	}
	var (
		runObs  obs.RunObserver
		scratch *eventScratch
		summary metrics.Summary
	)
	if observer != nil {
		runObs = observer.BeginRun(meta)
		defer func() { runObs.End(summary) }()
		scratch = newEventScratch(cfg)
	}
	var faultObs obs.FaultObserver
	if fo, ok := runObs.(obs.FaultObserver); ok && inj != nil {
		faultObs = fo
	}
	detailSampler, _ := runObs.(obs.EpochDetailSampler)

	// Learning introspection: attach the layer's sink to controllers that
	// stream learning samples. Everything here is read-only over the
	// decision stream (the byte-identical golden tests pin that), so runs
	// are unchanged with the layer on or off.
	var (
		runLearn  *learn.Run
		convObs   obs.ConvergedObserver
		policySrc ctrl.PolicySnapshotter
	)
	if lrn := opts.Learn; lrn != nil {
		if ls, ok := c.(ctrl.LearnStreamer); ok {
			lscratch := scratch
			if lscratch == nil {
				lscratch = newEventScratch(cfg)
			}
			runLearn = lrn.BeginRun(meta, lscratch.islandOf, len(lscratch.islands))
			ls.SetLearnSink(runLearn)
			defer ls.SetLearnSink(nil)
			policySrc, _ = c.(ctrl.PolicySnapshotter)
			convObs, _ = runObs.(obs.ConvergedObserver)
		}
	}

	var (
		meter      power.Meter
		instrStart float64
		maxTempK   = cfg.Thermal.AmbientK
		ctrlTime   time.Duration
		trace      []TracePoint
	)
	out := make([]int, opts.Cores)
	// One telemetry buffer for the whole run: StepInto rewrites every slot
	// each epoch and nothing downstream retains tel.Cores past the epoch
	// (observers and controllers copy what they keep), so the per-epoch
	// slice allocation — the dominant GC load of a run — disappears.
	var tel manycore.Telemetry
	// Per-epoch observer events and the convergence-drain callback are
	// hoisted out of the loop for the same reason: their addresses escape
	// into interface calls, so loop-local declarations would heap-allocate
	// every epoch. Observers copy what they keep, so reuse is safe; the
	// callback reads its epoch context through drainEpoch/drainTimeS.
	var (
		epochEv    obs.EpochEvent
		learnEv    obs.LearnEvent
		drainEpoch int
		drainTimeS float64
	)
	drainFn := func(cv *obs.ConvergedEvent) {
		cv.Epoch = drainEpoch
		cv.TimeS = drainTimeS
		if convObs != nil {
			convObs.ObserveConverged(cv)
		}
	}

	for e := 0; e < totalEpochs; e++ {
		if e == warmupEpochs {
			instrStart = chip.Instructions()
			// Re-zero phase probes so their totals split CtrlTimeS over
			// the same measurement window.
			if pp, ok := c.(ctrl.PhaseProfiler); ok {
				pp.ResetPhaseTimes()
			}
		}
		tStart := chip.TimeS()
		budget := opts.budgetAt(tStart)
		if inj != nil {
			for _, fe := range inj.Tick(tStart, opts.EpochS) {
				if fe.Kind == fault.KindCoreDead {
					chip.FailCore(fe.Core)
				}
				if faultObs != nil {
					ev := obs.FaultEvent{
						Epoch: e - warmupEpochs,
						TimeS: tStart,
						Kind:  fe.Kind,
						Core:  fe.Core,
					}
					if !math.IsInf(fe.UntilS, 1) {
						ev.UntilS = fe.UntilS
					}
					faultObs.ObserveFault(&ev)
				}
			}
			// Cap transients are real: controller and compliance meter both
			// see the reduced budget.
			budget = inj.FilterBudget(tStart, budget)
		}
		chip.StepInto(opts.EpochS, &tel)

		measuring := e >= warmupEpochs
		// The chip's hottest node, read once: nothing below changes a
		// temperature before the next StepInto.
		var tempK float64
		if measuring {
			meter.Add(tel.TruePowerW, budget, opts.EpochS)
			if tempK = chip.MaxTempK(); tempK > maxTempK {
				maxTempK = tempK
			}
			if traceEvery > 0 && (e-warmupEpochs)%traceEvery == 0 {
				trace = append(trace, TracePoint{
					TimeS:    tel.TimeS,
					PowerW:   tel.TruePowerW,
					BudgetW:  budget,
					MaxTempK: tempK,
				})
			}
		}

		start := time.Now() //odrl:allow wallclock decide-latency telemetry; recorded beside results, never feeds them
		c.Decide(&tel, budget, out)
		var decide time.Duration
		if measuring {
			decide = time.Since(start) //odrl:allow wallclock decide-latency telemetry; recorded beside results, never feeds them
			ctrlTime += decide
		}
		if runLearn != nil {
			// Convergence events are rare and delivered unconditionally,
			// like faults; the drain itself must run every epoch so pending
			// events never pile up when no trace is attached.
			drainEpoch, drainTimeS = e-warmupEpochs, tel.TimeS
			runLearn.DrainConverged(drainFn)
			runLearn.MaybeSnapshot(tel.TimeS, policySrc)
		}
		if runObs != nil && measuring {
			me := e - warmupEpochs
			if runObs.ShouldSample(me) {
				epochEv = obs.EpochEvent{
					Epoch:    me,
					TimeS:    tel.TimeS,
					PowerW:   tel.TruePowerW,
					BudgetW:  budget,
					MaxTempK: tempK,
					DecideNs: int64(decide),
				}
				if tel.TruePowerW > budget {
					epochEv.OvershootW = tel.TruePowerW - budget
				}
				detail := detailSampler == nil || detailSampler.WantsEpochDetail(me)
				if detail {
					scratch.fill(&epochEv, &tel)
				} else {
					scratch.fillLight(&epochEv, &tel)
				}
				if runLearn != nil {
					// Built only when an observer takes the detail.
					if detail {
						learnEv = obs.LearnEvent{Epoch: me, TimeS: tel.TimeS}
						epochEv.Learn = &learnEv
					}
					runLearn.FillEvent(&epochEv)
				}
				runObs.ObserveEpoch(&epochEv)
			}
		}
		for i, l := range out {
			chip.SetLevel(i, l)
		}
	}

	if runLearn != nil {
		// Detach before Finish so the controller flushes any partial emit
		// window (strided sinks); the deferred detach is then a no-op. The
		// flush can fire last-window convergence events, so drain once more.
		if ls, ok := c.(ctrl.LearnStreamer); ok {
			ls.SetLearnSink(nil)
		}
		drainEpoch, drainTimeS = totalEpochs-warmupEpochs-1, chip.TimeS()
		runLearn.DrainConverged(drainFn)
		runLearn.Finish(chip.TimeS(), policySrc)
	}

	var localS, globalS float64
	if pp, ok := c.(ctrl.PhaseProfiler); ok {
		for _, pt := range pp.PhaseTimes() {
			switch pt.Name {
			case obs.PhaseLocal:
				localS = pt.Total.Seconds()
			case obs.PhaseGlobal:
				globalS = pt.Total.Seconds()
			}
		}
	}

	comm := c.CommPerEpoch(mesh)
	summary = metrics.Summary{
		Controller:      c.Name(),
		Workload:        opts.Workload,
		Cores:           opts.Cores,
		BudgetW:         opts.BudgetW,
		DurS:            meter.TimeS(),
		Instr:           chip.Instructions() - instrStart,
		EnergyJ:         meter.EnergyJ(),
		OverJ:           meter.OverBudgetJ(),
		OverTimeS:       meter.OverBudgetTimeS(),
		PeakW:           meter.PeakW(),
		MeanW:           meter.MeanW(),
		MaxTempK:        maxTempK,
		CtrlTimeS:       ctrlTime.Seconds(),
		CtrlLocalTimeS:  localS,
		CtrlGlobalTimeS: globalS,
		CommEnergyJ:     comm.EnergyJ * float64(measureEpochs),
		CommLatencyS:    comm.LatencyS * float64(measureEpochs),
	}
	if err := summary.Validate(); err != nil {
		return Result{}, fmt.Errorf("sim: inconsistent summary: %w", err)
	}
	levels := make([]int, opts.Cores)
	for i := range levels {
		levels[i] = chip.Level(i)
	}
	return Result{Summary: summary, Trace: trace, FinalLevels: levels}, nil
}

// EnvFor builds the controller environment matching an options set: the
// same VF table and power constants the simulated chip will use, with the
// centralised decision cadence pinned to ~10 ms of simulated time.
func EnvFor(opts Options) (Env, error) {
	env := DefaultEnv(opts.Cores)
	env.Seed = opts.Seed
	env.Workers = opts.Workers
	if opts.FaultPlan != nil && !opts.FaultPlan.Zero() {
		// Faulted runs arm the stale-telemetry watchdog: 25 epochs (25 ms
		// at the default cadence) of exactly repeated readings before a
		// core falls back to its lowest-power level. Fault-free runs leave
		// it off so their decision stream stays byte-identical.
		env.WatchdogEpochs = 25
	}
	if opts.EpochS > 0 {
		cadence := int(10e-3/opts.EpochS + 0.5)
		if cadence < 1 {
			cadence = 1
		}
		env.CadenceEpochs = cadence
	}
	if opts.Platform != nil {
		table, err := opts.Platform.VFTable()
		if err != nil {
			return Env{}, err
		}
		env.VF = table
		env.Power = opts.Platform.Power
	}
	return env, nil
}

// Job is one run of a table: its options, and the controller that runs
// them.
type Job struct {
	Options
	// Controller names the factory controller the job runs, and the job in
	// errors.
	Controller string
	// Build, when set, builds the controller from the job's environment in
	// place of the factory, for variants the factory cannot name.
	Build func(Env) (ctrl.Controller, error)
	// Rules, when set, give the run a run-health monitor of its own that
	// evaluates them; Result.Faults and Result.Alerts report its counts.
	// The run's monitor takes the monitor slot, and a session monitor
	// already in Options.Monitor joins the observers it tees with, so it
	// still sees the run and the run's alerts reach the session's flight
	// recorder and tracer.
	Rules []monitor.Rule
}

// RunJobs runs every job, fanned out across workers goroutines (0 uses one
// per CPU), and returns the results in job order. Each run derives its
// state from its own options, so the results are identical for any worker
// count. Every job's controller is built for its options (EnvFor, then
// Build or NewController) and closed with its run: it is single-run, so a
// worker pool it started is released.
func RunJobs(workers int, jobs []Job) ([]Result, error) {
	return par.MapErr(workers, len(jobs), func(i int) (Result, error) {
		j := &jobs[i]
		res, err := j.run()
		if err != nil {
			return Result{}, fmt.Errorf("%s on %s: %w", j.Controller, j.Workload, err)
		}
		return res, nil
	})
}

// run builds the job's controller, runs it and closes it.
func (j *Job) run() (Result, error) {
	opts := j.Options
	var mon *monitor.Monitor
	if len(j.Rules) > 0 {
		mon = monitor.New(monitor.Options{Rules: j.Rules})
		if session := opts.Monitor; session != nil {
			opts.Observer = session.Wrap(opts.Observer)
		}
		opts.Monitor = mon
	}
	env, err := EnvFor(opts)
	if err != nil {
		return Result{}, err
	}
	var c ctrl.Controller
	if j.Build != nil {
		c, err = j.Build(env)
	} else {
		c, err = NewController(j.Controller, env)
	}
	if err != nil {
		return Result{}, err
	}
	res, err := Run(opts, c)
	if cl, ok := c.(io.Closer); ok {
		cl.Close()
	}
	if err != nil {
		return Result{}, err
	}
	if mon != nil {
		h := mon.Runs()[0]
		res.Faults, res.Alerts = h.Faults, h.AlertCount
	}
	return res, nil
}

// RunAll runs the same options against a list of controller names, one
// after another, returning results in the given order.
func RunAll(opts Options, names []string) ([]Result, error) {
	jobs := make([]Job, len(names))
	for i, name := range names {
		jobs[i] = Job{Options: opts, Controller: name}
	}
	return RunJobs(1, jobs)
}
