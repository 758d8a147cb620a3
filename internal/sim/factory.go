package sim

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/power"
	"repro/internal/vf"
)

// Env couples a controller to the platform it will manage.
type Env struct {
	Cores int
	VF    *vf.Table
	Power power.Params
	// CadenceEpochs is the decision cadence of the centralised baselines
	// and the OD-RL reallocation layer.
	CadenceEpochs int
	Seed          uint64
	// Workers bounds the goroutines sharding the OD-RL fine-grain phase:
	// 0 uses one worker per CPU, 1 forces sequential updates. Decisions
	// are bit-identical for any worker count.
	Workers int
	// WatchdogEpochs arms the OD-RL stale-telemetry watchdog (see
	// core.Config.WatchdogEpochs); 0 leaves it off. EnvFor sets it
	// automatically when the run carries a fault plan.
	WatchdogEpochs int
}

// DefaultEnv returns the default platform environment for a core count.
func DefaultEnv(cores int) Env {
	return Env{
		Cores:         cores,
		VF:            vf.Default(),
		Power:         power.Default(),
		CadenceEpochs: 10,
		Seed:          1,
	}
}

// ControllerNames lists every controller the factory can build, in the
// order evaluation tables present them.
func ControllerNames() []string {
	return []string{"od-rl", "od-rl-norealloc", "maxbips", "steepest-drop", "pid", "greedy", "static"}
}

// ODRLConfig is the OD-RL configuration the factory builds od-rl from
// for the environment: the default agent, seeded, sharded and
// watchdog-armed as env says, reallocating at its decision cadence.
// Variants the factory cannot name start from it.
func (env Env) ODRLConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = env.Seed
	cfg.FineEpochsPerRealloc = env.CadenceEpochs
	cfg.Workers = env.Workers
	cfg.WatchdogEpochs = env.WatchdogEpochs
	return cfg
}

// NewController builds a controller by name.
func NewController(name string, env Env) (ctrl.Controller, error) {
	if env.Cores <= 0 {
		return nil, fmt.Errorf("sim: invalid core count %d", env.Cores)
	}
	if env.VF == nil {
		return nil, fmt.Errorf("sim: nil VF table")
	}
	if env.CadenceEpochs < 1 {
		return nil, fmt.Errorf("sim: invalid cadence %d", env.CadenceEpochs)
	}
	switch name {
	case "od-rl", "od-rl-norealloc":
		cfg := env.ODRLConfig()
		cfg.DisableRealloc = name == "od-rl-norealloc"
		return core.New(env.Cores, env.VF, env.Power, cfg)
	case "maxbips":
		pred, err := ctrl.NewPredictor(env.VF, env.Power)
		if err != nil {
			return nil, err
		}
		return baselines.NewMaxBIPS(pred, env.CadenceEpochs, 0.05)
	case "steepest-drop":
		pred, err := ctrl.NewPredictor(env.VF, env.Power)
		if err != nil {
			return nil, err
		}
		return baselines.NewSteepestDrop(pred, env.CadenceEpochs)
	case "pid":
		return baselines.DefaultPID(env.VF), nil
	case "static":
		return baselines.NewStatic(env.VF, env.Power, 360)
	case "greedy":
		return baselines.NewGreedy(env.VF, env.Power)
	default:
		return nil, fmt.Errorf("sim: unknown controller %q (have %v)", name, ControllerNames())
	}
}
