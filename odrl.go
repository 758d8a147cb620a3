// Package repro is the public API of the OD-RL reproduction: On-line
// Distributed Reinforcement Learning DVFS control for power-limited
// many-core systems (Chen & Marculescu, DATE 2015), together with the
// simulation substrate it is evaluated on.
//
// The package re-exports the user-facing surface of the internal packages:
//
//   - Build a controller with NewController (OD-RL or any baseline), or a
//     custom-tuned OD-RL with NewODRL.
//   - Describe a scenario with Options (core count, workload, budget,
//     schedule) and execute it with Run or RunAll.
//   - Render results with WriteSummaryTable / WriteCSV / WriteTrace.
//   - Regenerate the paper's evaluation through Experiments / ExperimentByID.
//
// A minimal session:
//
//	opts := repro.DefaultOptions()
//	opts.Cores = 64
//	opts.BudgetW = 55
//	c, err := repro.NewController("od-rl", repro.DefaultEnv(opts.Cores))
//	if err != nil { ... }
//	res, err := repro.Run(opts, c)
//	if err != nil { ... }
//	fmt.Printf("%.1f BIPS at %.1f W\n", res.Summary.BIPS(), res.Summary.MeanW)
package repro

import (
	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/vf"
	"repro/internal/workload"
)

// Controller is any power-management policy: OD-RL or a baseline. See
// NewController for the registry.
type Controller = ctrl.Controller

// Options configures one simulation run; see DefaultOptions for the default
// 64-core platform.
type Options = sim.Options

// BudgetStep re-caps the chip budget at a point in simulated time.
type BudgetStep = sim.BudgetStep

// Result is one finished run: summary metrics, optional power trace, final
// VF levels.
type Result = sim.Result

// TracePoint is one sample of a recorded power trace.
type TracePoint = sim.TracePoint

// Summary holds the evaluation metrics of one run.
type Summary = metrics.Summary

// Env couples a controller to its platform (core count, VF table, power
// constants, decision cadence).
type Env = sim.Env

// ODRLConfig exposes every OD-RL hyper-parameter for custom tuning.
type ODRLConfig = core.Config

// WorkloadSpec describes a synthetic benchmark as a Markov chain over
// phases.
type WorkloadSpec = workload.Spec

// DefaultOptions returns the default 64-core scenario (mix workload, 90 W
// budget, 1 ms epochs).
func DefaultOptions() Options { return sim.DefaultOptions() }

// DefaultEnv returns the default platform environment for a core count.
func DefaultEnv(cores int) Env { return sim.DefaultEnv(cores) }

// ControllerNames lists every controller NewController can build.
func ControllerNames() []string { return sim.ControllerNames() }

// NewController builds a controller by name: "od-rl", "od-rl-norealloc",
// "maxbips", "steepest-drop", "pid", "greedy" or "static".
func NewController(name string, env Env) (Controller, error) {
	return sim.NewController(name, env)
}

// DefaultODRLConfig returns the OD-RL hyper-parameters used in the paper
// reproduction.
func DefaultODRLConfig() ODRLConfig { return core.DefaultConfig() }

// NewODRL builds an OD-RL controller with custom hyper-parameters on the
// default platform's VF table and power model.
func NewODRL(cores int, cfg ODRLConfig) (Controller, error) {
	return core.New(cores, vf.Default(), power.Default(), cfg)
}

// NewIslandODRL builds the island-aware OD-RL variant: one agent per
// voltage-frequency island on a chipW×chipH grid tiled by islandW×islandH
// islands. Pair it with Options.IslandW/IslandH so the simulated hardware
// actuates at the same granularity.
func NewIslandODRL(chipW, chipH, islandW, islandH int, cfg ODRLConfig) (Controller, error) {
	return core.NewIslands(chipW, chipH, islandW, islandH, vf.Default(), power.Default(), cfg)
}

// Run executes one simulation.
func Run(opts Options, c Controller) (Result, error) { return sim.Run(opts, c) }

// RunAll runs the same scenario for several controllers by name.
func RunAll(opts Options, names []string) ([]Result, error) { return sim.RunAll(opts, names) }

// WriteSummaryTable, WriteCSV and WriteTrace render results; see package
// sim for column definitions.
var (
	WriteSummaryTable = sim.WriteSummaryTable
	WriteCSV          = sim.WriteCSV
	WriteTrace        = sim.WriteTrace
)

// WorkloadNames lists the PARSEC-like benchmark presets.
func WorkloadNames() []string { return workload.PresetNames() }

// WorkloadPreset returns one named benchmark spec.
func WorkloadPreset(name string) (WorkloadSpec, error) { return workload.Preset(name) }

// ExperimentConfig scopes a paper-evaluation run.
type ExperimentConfig = experiments.Config

// ExperimentTable is one rendered experiment result.
type ExperimentTable = experiments.Table

// DefaultExperimentConfig returns the evaluation configuration recorded in
// EXPERIMENTS.md.
func DefaultExperimentConfig() ExperimentConfig { return experiments.Default() }

// ExperimentByID returns the runner for one experiment (CLAIMS, T1, T2,
// F1..F19).
func ExperimentByID(id string) (func(ExperimentConfig) (ExperimentTable, error), error) {
	r, err := experiments.ByID(id)
	if err != nil {
		return nil, err
	}
	return func(c ExperimentConfig) (ExperimentTable, error) { return r(c) }, nil
}
