package main

import (
	"io"

	"repro/internal/ctrl"
	"repro/internal/fault"
	"repro/internal/manycore"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sim"
)

// loopRun is one traced run: the Result sim.Run would have returned, the
// span range it recorded, and the counts taken at the layer boundaries.
type loopRun struct {
	res        sim.Result
	controller string
	cores      int
	// first and last bound the run's spans in the tracer: [first, last).
	first, last int
	// tel is the final epoch's telemetry, the shape the sub-layer replays
	// reuse.
	tel manycore.Telemetry
	// phaseChanges counts core-epochs whose workload phase changed;
	// liveCoreEpochs counts core-epochs on cores that had not failed.
	phaseChanges, liveCoreEpochs int
	faultEvents, deadCores       int
	// localS and globalS are the controller's own phase profile
	// (ctrl.PhaseProfiler) over the measurement window; measDecideNs is
	// the decide spans' total over the same window.
	localS, globalS float64
	measDecideNs    int64
	// scale normalises the run's host time (see refLoop); set by the
	// caller, which brackets the run with reference loops.
	scale float64
}

// decideNames names a controller's Decide spans by the module that
// implements it. The centralised baselines re-solve only every cadence
// epochs (epoch 0 included) and copy the held decision in between, so those
// two kinds of call get separate names.
type decideNames struct {
	solve, hold string
	cadence     int
}

func namesFor(controller string, cadence int) decideNames {
	switch controller {
	case "od-rl", "od-rl-norealloc":
		return decideNames{solve: "core.decide"}
	case "maxbips":
		return decideNames{"baselines.maxbips.solve", "baselines.maxbips.hold", cadence}
	case "steepest-drop":
		return decideNames{"baselines.steepest.solve", "baselines.steepest.hold", cadence}
	default:
		return decideNames{solve: "baselines." + controller + ".decide"}
	}
}

func (n decideNames) at(epoch int) string {
	if n.hold == "" || epoch%n.cadence == 0 {
		return n.solve
	}
	return n.hold
}

// budgetAt is the cap in force at simulated time t: the last schedule step
// at or before t, else the base budget (the lookup sim.Run performs).
func budgetAt(o sim.Options, t float64) float64 {
	b := o.BudgetW
	for _, s := range o.BudgetSchedule {
		if t >= s.AtS {
			b = s.BudgetW
		} else {
			break
		}
	}
	return b
}

// runLoop runs one simulation through its own copy of sim.Run's epoch loop,
// calling only the public layer APIs and recording one span per call. The
// returned Result must equal sim.Run's bit for bit in every simulated field;
// only the wall-clock controller times differ. Observers are not attached:
// they are read-only, so the simulated outputs do not depend on them.
func runLoop(t *tracer, opts sim.Options, controller string) (d loopRun, err error) {
	t.run++
	d.controller, d.cores, d.first = controller, opts.Cores, len(t.spans)
	root := t.begin("sim.run", kindRun, -1)
	defer func() {
		t.end(root)
		d.last = len(t.spans)
	}()

	b := t.begin("sim.env_for", kindBuild, root)
	env, err := sim.EnvFor(opts)
	t.end(b)
	if err != nil {
		return d, err
	}
	b = t.begin("ctrl.new", kindBuild, root)
	c, err := sim.NewController(controller, env)
	t.end(b)
	if err != nil {
		return d, err
	}
	if cl, ok := c.(io.Closer); ok {
		defer cl.Close()
	}
	b = t.begin("manycore.new_chip", kindBuild, root)
	chip, mesh, err := sim.NewChip(opts)
	t.end(b)
	if err != nil {
		return d, err
	}
	defer chip.Close()
	cfg := chip.Config()

	warmup, measure := opts.Epochs()
	total := warmup + measure
	var inj *fault.Injector
	if p := opts.FaultPlan; p != nil && !p.Zero() {
		b = t.begin("fault.new_injector", kindBuild, root)
		inj, err = fault.NewInjector(*p, opts.Cores, float64(total)*opts.EpochS, opts.Seed)
		t.end(b)
		if err != nil {
			return d, err
		}
		chip.SetTelemetryFilter(inj)
		chip.SetActuationFilter(inj)
	}

	names := namesFor(controller, env.CadenceEpochs)
	pp, _ := c.(ctrl.PhaseProfiler)
	var (
		meter      power.Meter
		instrStart float64
		maxTempK   = cfg.Thermal.AmbientK
		tel        manycore.Telemetry
	)
	out := make([]int, opts.Cores)
	for e := 0; e < total; e++ {
		if e == warmup {
			instrStart = chip.Instructions()
			if pp != nil {
				pp.ResetPhaseTimes()
			}
		}
		ep := t.begin("sim.epoch", kindEpoch, root)
		tStart := chip.TimeS()
		budget := budgetAt(opts, tStart)
		if inj != nil {
			f := t.begin("fault.tick", kindFault, ep)
			for _, fe := range inj.Tick(tStart, opts.EpochS) {
				if fe.Kind == fault.KindCoreDead {
					chip.FailCore(fe.Core)
					d.deadCores++
				}
				d.faultEvents++
			}
			budget = inj.FilterBudget(tStart, budget)
			t.end(f)
		}
		s := t.begin("manycore.step", kindStep, ep)
		chip.StepInto(opts.EpochS, &tel)
		t.end(s)

		measuring := e >= warmup
		if measuring {
			meter.Add(tel.TruePowerW, budget, opts.EpochS)
			if tk := chip.MaxTempK(); tk > maxTempK {
				maxTempK = tk
			}
		}
		dc := t.begin(names.at(e), kindDecide, ep)
		c.Decide(&tel, budget, out)
		t.end(dc)
		if measuring {
			d.measDecideNs += t.spans[dc].dur()
		}
		a := t.begin("manycore.setlevel", kindSetLevel, ep)
		for i, l := range out {
			chip.SetLevel(i, l)
		}
		t.end(a)
		t.end(ep)

		for i := range tel.Cores {
			if ct := &tel.Cores[i]; !ct.Dead {
				d.liveCoreEpochs++
				if ct.PhaseChanged {
					d.phaseChanges++
				}
			}
		}
	}

	if pp != nil {
		for _, pt := range pp.PhaseTimes() {
			switch pt.Name {
			case obs.PhaseLocal:
				d.localS = pt.Total.Seconds()
			case obs.PhaseGlobal:
				d.globalS = pt.Total.Seconds()
			}
		}
	}
	comm := c.CommPerEpoch(mesh)
	summary := metrics.Summary{
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
		CtrlTimeS:       float64(d.measDecideNs) / 1e9,
		CtrlLocalTimeS:  d.localS,
		CtrlGlobalTimeS: d.globalS,
		CommEnergyJ:     comm.EnergyJ * float64(measure),
		CommLatencyS:    comm.LatencyS * float64(measure),
	}
	if err := summary.Validate(); err != nil {
		return d, err
	}
	levels := make([]int, opts.Cores)
	for i := range levels {
		levels[i] = chip.Level(i)
	}
	d.res = sim.Result{Summary: summary, FinalLevels: levels}
	d.tel = tel
	d.tel.Cores = append([]manycore.CoreTelemetry(nil), tel.Cores...)
	return d, nil
}
