package main

import (
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/manycore"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/thermal"
	wl "repro/internal/workload"
)

// controllerNames are the controllers a decide-share metric is reported
// for: the paper-grid-64 axis, which covers every controller the live
// workloads use.
var controllerNames = []string{"od-rl", "maxbips", "steepest-drop", "pid", "greedy", "static"}

// layerAcc accumulates the traced passes of one benchmark run.
type layerAcc struct {
	// Per-call samples in ns, for medians and tails.
	epochNs, stepNs, decideNs []float64
	// Totals in ns over every traced epoch.
	epochTotal, epochSelf, stepTotal, decideTotal, setLevelTotal, faultTotal int64
	// stepCoreCalls is Σ cores over StepInto calls, for the per-core cost.
	stepCoreCalls float64
	decideByCtrl  map[string]int64
	solveTotal    map[string]int64 // by span name (….solve)
	solves        map[string]int
	holdTotal     int64

	phaseChanges, liveCoreEpochs int
	faultEvents, deadCores       int
	odrlLocalS, odrlGlobalS      float64
	odrlDecideS                  float64 // od-rl decide spans, measurement window

	passes int // traced passes (each one full unit of work)
	// Per-pass ratios against the untraced unit of the same round.
	tracingOverhead []float64
	obsOverhead     []float64
	obsAllocPerEp   []float64
	fanoutEff       []float64
	criticalPath    []float64
}

func newLayerAcc() *layerAcc {
	return &layerAcc{
		decideByCtrl: map[string]int64{},
		solveTotal:   map[string]int64{},
		solves:       map[string]int{},
	}
}

// add folds one traced pass (every job of one unit of work) into the
// accumulator.
func (a *layerAcc) add(t *tracer, runs []loopRun) {
	a.passes++
	self := selfTimes(t.spans)
	for _, d := range runs {
		for i := d.first; i < d.last; i++ {
			s := t.spans[i]
			dur := s.dur()
			switch s.kind {
			case kindEpoch:
				a.epochNs = append(a.epochNs, float64(dur))
				a.epochTotal += dur
				a.epochSelf += self[i]
			case kindStep:
				a.stepNs = append(a.stepNs, float64(dur))
				a.stepTotal += dur
				a.stepCoreCalls += float64(d.cores)
			case kindDecide:
				a.decideNs = append(a.decideNs, float64(dur))
				a.decideTotal += dur
				a.decideByCtrl[d.controller] += dur
				switch {
				case strings.HasSuffix(s.name, ".solve"):
					a.solveTotal[s.name] += dur
					a.solves[s.name]++
				case strings.HasSuffix(s.name, ".hold"):
					a.holdTotal += dur
				}
			case kindSetLevel:
				a.setLevelTotal += dur
			case kindFault:
				a.faultTotal += dur
			}
		}
		a.phaseChanges += d.phaseChanges
		a.liveCoreEpochs += d.liveCoreEpochs
		a.faultEvents += d.faultEvents
		a.deadCores += d.deadCores
		if d.controller == "od-rl" {
			a.odrlLocalS += d.localS
			a.odrlGlobalS += d.globalS
			a.odrlDecideS += float64(d.measDecideNs) / 1e9
		}
	}
}

// replayCost is the host cost of the kernel's sub-layers, timed by
// replaying one epoch's worth of their calls on standalone instances of
// the same shape.
type replayCost struct {
	drawsPerEpoch float64 // NormFloat64 calls StepInto makes per epoch
	nsPerDraw     float64
	thermalNs     float64 // one thermal.Model.Step per epoch
	lutNsPerCore  float64 // one LUT.LeakageWAt per core
	advNsPerCore  float64 // one Process.Advance / Lane.AdvanceWork per core
}

// perEpochNs is the replays' total cost per epoch for n cores.
func (r replayCost) perEpochNs(n int) float64 {
	return r.drawsPerEpoch*r.nsPerDraw + r.thermalNs + float64(n)*(r.lutNsPerCore+r.advNsPerCore)
}

// replaySink keeps the replayed calls' results live so the compiler cannot
// drop them.
var replaySink float64

// replay times the sub-layer calls a StepInto on j's chip makes, using the
// final telemetry tel of a traced run for levels, temperatures, power and
// retired instructions. Each figure is the median over batches of
// epochsPerBatch replayed epochs.
func replay(j job, tel manycore.Telemetry, batches, epochsPerBatch int) (replayCost, error) {
	n := j.opts.Cores
	dt := j.opts.EpochS
	plat := config.Default()
	table, err := plat.VFTable()
	if err != nil {
		return replayCost{}, err
	}
	w, h, err := sim.GridFor(n)
	if err != nil {
		return replayCost{}, err
	}
	levels := make([]int, n)
	temps := make([]float64, n)
	powerW := make([]float64, n)
	instr := make([]float64, n)
	for i, ct := range tel.Cores {
		levels[i], temps[i], powerW[i], instr[i] = ct.Level, ct.TempK, ct.PowerW, ct.Instructions
	}

	perBatch := func(fn func()) float64 {
		xs := make([]float64, batches)
		for b := range xs {
			t0 := time.Now()
			for e := 0; e < epochsPerBatch; e++ {
				fn()
			}
			xs[b] = float64(time.Since(t0).Nanoseconds()) / float64(epochsPerBatch)
		}
		return median(xs)
	}

	var rc replayCost
	if j.opts.SensorNoise != 0 {
		// 3 variates per core (IPS, power, memory-boundedness) plus one
		// for the chip power meter.
		rc.drawsPerEpoch = float64(3*n + 1)
		r := rng.New(j.opts.Seed)
		draws := 3*n + 1
		rc.nsPerDraw = perBatch(func() {
			for k := 0; k < draws; k++ {
				replaySink += r.NormFloat64()
			}
		}) / float64(draws)
	}
	if !j.opts.ThermalOff {
		m, err := thermal.New(w, h, plat.Thermal)
		if err != nil {
			return replayCost{}, err
		}
		rc.thermalNs = perBatch(func() { m.Step(powerW, dt) })
		replaySink += m.MaxTemp()
	}
	lut := power.NewLUT(plat.Power, table.VoltagesV())
	rc.lutNsPerCore = perBatch(func() {
		for i := 0; i < n; i++ {
			replaySink += lut.LeakageWAt(levels[i], temps[i])
		}
	}) / float64(n)

	advance, err := advancer(j, n, dt, instr)
	if err != nil {
		return replayCost{}, err
	}
	rc.advNsPerCore = perBatch(advance) / float64(n)
	return rc, nil
}

// advancer returns one epoch of workload advancement for n standalone
// sources of j's kind: barrier lanes advanced by the instructions each core
// retired, or Markov phase processes of the same presets.
func advancer(j job, n int, dt float64, instr []float64) (func(), error) {
	r := rng.New(j.opts.Seed)
	if j.opts.Workload == "barrier" {
		// The compute phase and quota sim.Run gives its barrier app.
		work := wl.Phase{
			Class: wl.Compute, BaseCPI: 0.85, MPKI: 2.0,
			MemLatencyNs: 75, Activity: 0.9,
		}
		app, err := wl.NewBarrierApp(n, work, 30e6, 0.2, r)
		if err != nil {
			return nil, err
		}
		return func() {
			for i := 0; i < n; i++ {
				replaySink += float64(app.Lane(i).AdvanceWork(dt, instr[i]))
			}
		}, nil
	}
	var specs []wl.Spec
	if j.opts.Workload == "mix" {
		for _, name := range wl.PresetNames() {
			specs = append(specs, wl.MustPreset(name))
		}
	} else {
		s, err := wl.Preset(j.opts.Workload)
		if err != nil {
			return nil, err
		}
		specs = []wl.Spec{s}
	}
	procs := make([]*wl.Process, n)
	for i := range procs {
		p, err := wl.NewProcess(specs[i%len(specs)], r.Split())
		if err != nil {
			return nil, err
		}
		procs[i] = p
	}
	return func() {
		for _, p := range procs {
			replaySink += float64(p.Advance(dt))
		}
	}, nil
}
