package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/ctrl"
	"repro/internal/fault"
	"repro/internal/manycore"
	"repro/internal/noc"
	"repro/internal/obs/flight"
	"repro/internal/obs/learn"
	"repro/internal/obs/monitor"
	"repro/internal/power"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// workloadNames lists the workloads in the order `-workload all` runs them.
// Each is a closed loop: the next unit of work starts only when the
// previous one has finished.
var workloadNames = []string{"kernel-1024", "odrl-256-observed", "paper-grid-64", "barrier-256-faults"}

// barrierRealisations is how many fault realisations one barrier-256-faults
// unit of work simulates.
const barrierRealisations = 4

// job is one simulated run of a workload.
type job struct {
	opts       sim.Options
	controller string
	// observed attaches the observability stack a CLI user gets (see
	// withObs) to the untraced run.
	observed bool
}

// workload is one benchmark input set. A unit of work is one sim.Run per
// job, one after another, or for a grid one scenario.Engine.Run of spec,
// which executes the jobs as one comparison table.
type workload struct {
	name string
	seed uint64
	jobs []job
	spec *scenario.Spec
}

// epochs returns the simulated epochs, measured epochs and core-epochs one
// unit of work simulates.
func (w workload) epochs() (total, measured, coreEpochs float64) {
	for _, j := range w.jobs {
		warm, meas := j.opts.Epochs()
		total += float64(warm + meas)
		measured += float64(meas)
		coreEpochs += float64(j.opts.Cores * (warm + meas))
	}
	return total, measured, coreEpochs
}

// budgetFor is 0.9 W per core plus the uncore floor: a cap tight enough that
// the controllers must trade cores off against each other.
func budgetFor(cores int) float64 {
	return 0.9*float64(cores) + power.Default().UncoreW
}

// liveOptions is the shared shape of the single-run workloads: the default
// platform, 1 ms epochs, 2% sensor noise, thermal loop on, one worker so the
// run is sequential and host-time comparisons are not scheduler-bound.
func liveOptions(seed uint64, cores int, warmupS, measureS float64) sim.Options {
	o := sim.DefaultOptions()
	o.Seed = seed
	o.Cores = cores
	o.BudgetW = budgetFor(cores)
	o.WarmupS = warmupS
	o.MeasureS = measureS
	o.Workers = 1
	return o
}

// newWorkload builds a named workload for a seed. quick shrinks every shape
// to 16 cores and one simulated second, for smoke tests.
func newWorkload(name string, seed uint64, quick bool) (workload, error) {
	if seed == 0 {
		return workload{}, fmt.Errorf("seed 0 is reserved; use a seed >= 1")
	}
	w := workload{name: name, seed: seed}
	// shape picks the full-size or the quick value of a parameter.
	shape := func(full, small float64) float64 {
		if quick {
			return small
		}
		return full
	}
	cores := func(full int) int {
		if quick {
			return 16
		}
		return full
	}
	switch name {
	case "kernel-1024":
		o := liveOptions(seed, cores(1024), shape(0.5, 0.1), shape(2.5, 0.9))
		w.jobs = []job{{opts: o, controller: "pid"}}
	case "odrl-256-observed":
		o := liveOptions(seed, cores(256), shape(2, 0.1), shape(6, 0.9))
		w.jobs = []job{{opts: o, controller: "od-rl", observed: true}}
	case "barrier-256-faults":
		// A waiting lane scans the barrier up to the first lane still
		// working, and a dead core's lane never arrives, so one fault
		// realisation's host cost differs by up to a quarter between seeds
		// with where its dead cores fall. A unit therefore runs
		// barrierRealisations of them, from a block of seeds only this
		// input seed maps to.
		plan := fault.Scaled(0.5)
		for k := uint64(0); k < barrierRealisations; k++ {
			o := liveOptions((seed-1)*barrierRealisations+k+1, cores(256), shape(1, 0.1), shape(7, 0.9))
			o.Workload = "barrier"
			scale := o.BudgetW / budgetFor(256)
			o.BudgetSchedule = []sim.BudgetStep{
				{AtS: shape(3, 0.3), BudgetW: 170 * scale},
				{AtS: shape(6, 0.6), BudgetW: 240 * scale},
			}
			o.FaultPlan = &plan
			w.jobs = append(w.jobs, job{opts: o, controller: "od-rl"})
		}
	case "paper-grid-64":
		spec := scenario.Spec{
			Name:        "paper-grid-64",
			Cores:       cores(64),
			BudgetW:     55 * float64(cores(64)) / 64,
			Benchmarks:  []string{"canneal", "ferret", "swaptions", "x264"},
			Controllers: []string{"od-rl", "maxbips", "steepest-drop", "pid", "greedy", "static"},
			WarmupS:     shape(2, 0.1),
			MeasureS:    shape(4, 0.9),
			Seeds:       []uint64{seed},
			// Two workers: the host's CPU count, so fan-out load balance
			// shows without oversubscribing the machine.
			Workers: 2,
		}
		if quick {
			spec.Benchmarks = spec.Benchmarks[:2]
		}
		w.spec = &spec
		w.jobs = gridJobs(spec)
	default:
		return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	return w, nil
}

// gridJobs lists a comparison spec's runs in table-row order (seed, then
// workload, then controller) with the options the scenario engine assembles
// for each. A mismatch with the engine shows up as a fidelity failure.
func gridJobs(s scenario.Spec) []job {
	var jobs []job
	for _, seed := range s.Seeds {
		for _, b := range s.Benchmarks {
			for _, c := range s.Controllers {
				o := sim.DefaultOptions()
				o.Workload = b
				o.Seed = seed
				o.Workers = s.Workers
				o.Cores = s.Cores
				o.BudgetW = s.BudgetW
				o.WarmupS = s.WarmupS
				o.MeasureS = s.MeasureS
				jobs = append(jobs, job{opts: o, controller: c})
			}
		}
	}
	return jobs
}

// withObs attaches the observability a CLI user gets: the run-health
// monitor with its default alert rules, learning introspection, and the
// flight recorder's epoch ring and span timeline. Everything is wired
// through sim.Options fields, never the sim.Default* globals, so each run
// owns its stack.
func withObs(o sim.Options) sim.Options {
	rec := flight.New(flight.Options{})
	o.Monitor = monitor.New(monitor.Options{})
	o.Learn = learn.New(learn.Options{})
	o.Observer = rec.Wrap(nil)
	o.SpanSink = rec.Timeline()
	return o
}

// closeController releases a controller's worker pool, if it has one.
func closeController(c ctrl.Controller) {
	if cl, ok := c.(io.Closer); ok {
		cl.Close()
	}
}

// setupSample is one timed construction of everything a unit of work
// builds before its first epoch: EnvFor, NewController and NewChip per job
// (plus the observability stack where attached, and Spec.Validate + Hash for
// a grid). sim.Run builds its own chip, so the chip built here is closed
// unused.
type setupSample struct {
	totalS        float64 // host seconds
	normS         float64 // the same, normalised (see refLoop)
	chipS, ctrlS  float64 // NewChip and NewController, summed over jobs
	validateHashS float64
	heapB         float64 // live heap the constructed objects hold
}

func (w workload) setup() (setupSample, error) {
	var s setupSample
	// Everything built stays reachable until the heap is measured; the mesh
	// and the options' observability stack are part of it.
	type built struct {
		c    ctrl.Controller
		chip *manycore.Chip
		mesh *noc.Mesh
		opts sim.Options
	}
	all := make([]built, 0, len(w.jobs))
	defer func() {
		for _, b := range all {
			b.chip.Close()
			closeController(b.c)
		}
	}()

	var before, after runtime.MemStats
	r0 := refLoop()
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	if w.spec != nil {
		if err := w.spec.Validate(); err != nil {
			return s, err
		}
		if _, err := w.spec.Hash(); err != nil {
			return s, err
		}
		s.validateHashS = time.Since(t0).Seconds()
	}
	for _, j := range w.jobs {
		o := j.opts
		if j.observed {
			o = withObs(o)
		}
		env, err := sim.EnvFor(o)
		if err != nil {
			return s, err
		}
		tc := time.Now()
		c, err := sim.NewController(j.controller, env)
		if err != nil {
			return s, err
		}
		tch := time.Now()
		chip, mesh, err := sim.NewChip(o)
		if err != nil {
			closeController(c)
			return s, err
		}
		s.ctrlS += tch.Sub(tc).Seconds()
		s.chipS += time.Since(tch).Seconds()
		all = append(all, built{c, chip, mesh, o})
	}
	s.totalS = time.Since(t0).Seconds()
	s.normS = s.totalS * refScale(r0, refLoop())
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(all)
	s.heapB = float64(int64(after.HeapAlloc) - int64(before.HeapAlloc))
	return s, nil
}
