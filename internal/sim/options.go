// Package sim is the experiment harness: it assembles a chip, workloads and
// a controller, runs warmup and measurement windows, and reduces the run to
// the metrics the paper's tables and figures report.
package sim

import (
	"fmt"
	"math"

	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/variation"
	"repro/internal/workload"
)

// BudgetStep changes the chip power budget at a point in simulated time,
// modelling datacentre-level cap events.
type BudgetStep struct {
	AtS     float64
	BudgetW float64
}

// Options configures one run.
type Options struct {
	// Cores is the total core count; the grid is chosen as close to square
	// as the count allows.
	Cores int
	// Workload is a preset name from package workload, "mix" to spread all
	// presets round-robin across cores, or "barrier" for one
	// bulk-synchronous app across all cores. Preset and mix cores each
	// scale their phases by a seeded factor in [0.9, 1.1] (workload
	// imbalance).
	Workload string
	// BudgetW is the chip power budget (TDP) in watts.
	BudgetW float64
	// BudgetSchedule optionally re-caps the chip mid-run; steps must be
	// sorted by AtS.
	BudgetSchedule []BudgetStep
	// EpochS is the control epoch length.
	EpochS float64
	// WarmupS runs before measurement starts (RL agents keep learning
	// throughout; metrics cover only the measurement window).
	WarmupS float64
	// MeasureS is the measurement window length.
	MeasureS float64
	// Seed drives workload realisation and sensor noise.
	Seed uint64
	// SensorNoise is the relative telemetry noise (see manycore.Config).
	SensorNoise float64
	// ThermalOff disables the leakage–temperature loop.
	ThermalOff bool
	// TracePoints, when positive, records a decimated power trace of about
	// that many points over the measurement window.
	TracePoints int
	// Platform overrides the device-level constants (VF table, power,
	// thermal, NoC, transition penalty); nil uses config.Default.
	Platform *config.Platform
	// Variation optionally applies process variation to the die; nil runs
	// a nominal chip.
	Variation *variation.Params
	// IslandW and IslandH group cores into voltage-frequency islands
	// sharing one operating point (0 = per-core DVFS). Must tile the core
	// grid.
	IslandW, IslandH int
	// BigLittle builds a heterogeneous chip: the left half of the grid
	// uses big (wide, power-hungry) cores and the right half little
	// (efficient) ones. Controllers are not told which is which.
	BigLittle bool
	// Stack is the observability the run reports to; the zero value
	// observes nothing.
	Stack
	// Workers bounds the goroutines sharding the per-core simulation and
	// control loops (the `-j` knob): 0 uses one worker per CPU, 1 forces
	// fully sequential execution. Results are bit-identical for any
	// worker count; see internal/par for the determinism contract.
	Workers int
	// FaultPlan, when non-nil and non-zero, injects deterministic
	// telemetry/actuation/structural faults into the run (see package
	// fault). The fault stream is seeded from (Seed, FaultPlan.Seed) and
	// drawn only on the sequential epoch loop, so fault realisations are
	// identical for any Workers count. Nil — or a plan whose Zero() is
	// true — leaves the run byte-identical to the fault-free path.
	FaultPlan *fault.Plan
}

// DefaultOptions returns the default 64-core platform run: 90 W budget,
// 1 ms epochs, 2 s warmup, 8 s measurement.
func DefaultOptions() Options {
	return Options{
		Cores:       64,
		Workload:    "mix",
		BudgetW:     90,
		EpochS:      1e-3,
		WarmupS:     2,
		MeasureS:    8,
		Seed:        1,
		SensorNoise: 0.02,
	}
}

// positive reports whether x is a finite number above zero; NaN is not.
func positive(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// nonNegative reports whether x is a finite number at or above zero; NaN
// is not.
func nonNegative(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// Validate reports the first invalid option. It is the one check of a
// run's parameters: Run refuses what it refuses before the first epoch,
// and the scenario engine applies it to every run of a spec before any
// of them starts.
func (o Options) Validate() error {
	switch {
	case o.Cores <= 0:
		return fmt.Errorf("sim: invalid core count %d", o.Cores)
	case !positive(o.BudgetW):
		return fmt.Errorf("sim: invalid budget %g W", o.BudgetW)
	case !positive(o.EpochS):
		return fmt.Errorf("sim: invalid epoch %g s", o.EpochS)
	case !nonNegative(o.WarmupS):
		return fmt.Errorf("sim: invalid warmup %g s", o.WarmupS)
	case !positive(o.MeasureS):
		return fmt.Errorf("sim: invalid measurement window %g s", o.MeasureS)
	case !nonNegative(o.SensorNoise):
		return fmt.Errorf("sim: invalid sensor noise %g", o.SensorNoise)
	case o.TracePoints < 0:
		return fmt.Errorf("sim: negative trace points %d", o.TracePoints)
	case o.Workers < 0:
		return fmt.Errorf("sim: negative worker count %d", o.Workers)
	}
	if _, measure := o.Epochs(); measure < 1 {
		return fmt.Errorf("sim: measurement window %g s rounds to %d epochs of %g s; need at least 1", o.MeasureS, measure, o.EpochS)
	}
	if o.Workload != "mix" && o.Workload != "barrier" {
		if _, err := workload.Preset(o.Workload); err != nil {
			return err
		}
	}
	if o.Platform != nil {
		if err := o.Platform.Validate(); err != nil {
			return err
		}
	}
	if o.Variation != nil {
		if err := o.Variation.Validate(); err != nil {
			return err
		}
	}
	if o.FaultPlan != nil {
		if err := o.FaultPlan.Validate(); err != nil {
			return err
		}
	}
	prev := math.Inf(-1)
	for i, s := range o.BudgetSchedule {
		if !nonNegative(s.AtS) || !positive(s.BudgetW) {
			return fmt.Errorf("sim: invalid budget step %d: %+v", i, s)
		}
		if s.AtS <= prev {
			return fmt.Errorf("sim: budget step %d is not after step %d", i, i-1)
		}
		prev = s.AtS
	}
	return nil
}

// Epochs returns the warmup and measurement epoch counts Run will use, so
// callers logging run configuration agree with the harness's rounding.
func (o Options) Epochs() (warmup, measure int) {
	return int(o.WarmupS/o.EpochS + 0.5), int(o.MeasureS/o.EpochS + 0.5)
}

// budgetAt resolves the budget in force at simulated time t.
func (o Options) budgetAt(t float64) float64 {
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

// GridFor factors a core count into the most square W×H grid. It returns an
// error only for non-positive counts; primes degrade to 1×n.
func GridFor(cores int) (w, h int, err error) {
	if cores <= 0 {
		return 0, 0, fmt.Errorf("sim: invalid core count %d", cores)
	}
	h = int(math.Sqrt(float64(cores)))
	for h > 1 && cores%h != 0 {
		h--
	}
	return cores / h, h, nil
}
