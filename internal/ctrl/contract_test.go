// Contract tests: every registered controller must satisfy the Controller
// interface's behavioural contract, not just its type signature. The suite
// runs from an external test package so it can build controllers through
// the sim factory without an import cycle.
package ctrl_test

import (
	"math"
	"testing"

	"repro/internal/ctrl"
	"repro/internal/manycore"
	"repro/internal/noc"
	"repro/internal/obs"
	learn "repro/internal/obs/learn"
	"repro/internal/sim"
	"repro/internal/vf"
)

const contractCores = 16

func newEnv() sim.Env {
	return sim.DefaultEnv(contractCores)
}

func build(t *testing.T, name string) ctrl.Controller {
	t.Helper()
	c, err := sim.NewController(name, newEnv())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// synthTelemetry builds a deterministic, plausible telemetry frame for the
// given epoch: per-core IPS/power varying smoothly, with the previous
// decisions fed back as the current levels.
func synthTelemetry(epoch int, levels []int, table *vf.Table) manycore.Telemetry {
	n := len(levels)
	tel := manycore.Telemetry{
		Cores:  make([]manycore.CoreTelemetry, n),
		TimeS:  float64(epoch+1) * 1e-3,
		EpochS: 1e-3,
	}
	for i := range tel.Cores {
		op := table.Point(levels[i])
		phase := float64((epoch*7+i*13)%100) / 100
		tel.Cores[i] = manycore.CoreTelemetry{
			Level:          levels[i],
			IPS:            op.FreqHz * (0.4 + 0.8*phase),
			PowerW:         0.3 + 2.5*phase*float64(levels[i]+1)/float64(table.Levels()),
			MemBoundedness: phase * 0.9,
			TempK:          320 + 30*phase,
			Instructions:   op.FreqHz * 1e-3,
		}
		tel.ChipPowerW += tel.Cores[i].PowerW
	}
	tel.TruePowerW = tel.ChipPowerW
	return tel
}

// drive runs the controller over a synthetic closed loop and calls check
// after every decision.
func drive(t *testing.T, c ctrl.Controller, epochs int, budgetAt func(epoch int) float64,
	mutate func(epoch int, tel *manycore.Telemetry), check func(epoch int, out []int)) {
	t.Helper()
	table := vf.Default()
	levels := make([]int, contractCores)
	out := make([]int, contractCores)
	for e := 0; e < epochs; e++ {
		tel := synthTelemetry(e, levels, table)
		if mutate != nil {
			mutate(e, &tel)
		}
		c.Decide(&tel, budgetAt(e), out)
		check(e, out)
		copy(levels, out)
		for i, l := range levels {
			if l < 0 {
				levels[i] = 0
			} else if l >= table.Levels() {
				levels[i] = table.Levels() - 1
			}
		}
	}
}

func requireInRange(t *testing.T, name string, epoch int, out []int) {
	t.Helper()
	top := vf.Default().Levels()
	for i, l := range out {
		if l < 0 || l >= top {
			t.Fatalf("%s: epoch %d core %d: level %d out of [0,%d)", name, epoch, i, l, top)
		}
	}
}

// TestContractLevelsInRange: every decision must be a valid VF level under
// ordinary closed-loop operation.
func TestContractLevelsInRange(t *testing.T) {
	for _, name := range sim.ControllerNames() {
		t.Run(name, func(t *testing.T) {
			c := build(t, name)
			drive(t, c, 60, func(int) float64 { return 40 }, nil,
				func(e int, out []int) { requireInRange(t, name, e, out) })
		})
	}
}

// TestContractZeroTelemetry: an all-zero frame (boot, total blackout, every
// core dead) must produce in-range levels, not a panic or NaN cascade.
func TestContractZeroTelemetry(t *testing.T) {
	for _, name := range sim.ControllerNames() {
		t.Run(name, func(t *testing.T) {
			c := build(t, name)
			zero := func(_ int, tel *manycore.Telemetry) {
				for i := range tel.Cores {
					tel.Cores[i] = manycore.CoreTelemetry{Dead: i%2 == 0}
				}
				tel.ChipPowerW = 0
				tel.TruePowerW = 0
			}
			drive(t, c, 30, func(int) float64 { return 40 }, zero,
				func(e int, out []int) { requireInRange(t, name, e, out) })
		})
	}
}

// TestContractNaNTelemetry: corrupted sensor values (NaN/Inf) must never
// crash a controller or escape as out-of-range levels.
func TestContractNaNTelemetry(t *testing.T) {
	for _, name := range sim.ControllerNames() {
		t.Run(name, func(t *testing.T) {
			c := build(t, name)
			poison := func(e int, tel *manycore.Telemetry) {
				for i := range tel.Cores {
					switch (e + i) % 4 {
					case 0:
						tel.Cores[i].PowerW = math.NaN()
					case 1:
						tel.Cores[i].IPS = math.NaN()
						tel.Cores[i].MemBoundedness = math.NaN()
					case 2:
						tel.Cores[i].TempK = math.NaN()
					case 3:
						tel.Cores[i].PowerW = math.Inf(1)
					}
				}
				if e%3 == 0 {
					tel.ChipPowerW = math.NaN()
				}
			}
			drive(t, c, 40, func(int) float64 { return 40 }, poison,
				func(e int, out []int) { requireInRange(t, name, e, out) })
		})
	}
}

// TestContractZeroBudget: a zero (or absurdly low) budget is hostile but
// must degrade to in-range decisions.
func TestContractZeroBudget(t *testing.T) {
	for _, name := range sim.ControllerNames() {
		t.Run(name, func(t *testing.T) {
			c := build(t, name)
			drive(t, c, 30, func(int) float64 { return 0 }, nil,
				func(e int, out []int) { requireInRange(t, name, e, out) })
		})
	}
}

// TestContractBudgetStep: a mid-run cap change (the F1 scenario) must not
// derail any controller.
func TestContractBudgetStep(t *testing.T) {
	for _, name := range sim.ControllerNames() {
		t.Run(name, func(t *testing.T) {
			c := build(t, name)
			budget := func(e int) float64 {
				if e >= 30 {
					return 15
				}
				return 45
			}
			drive(t, c, 60, budget, nil,
				func(e int, out []int) { requireInRange(t, name, e, out) })
		})
	}
}

// TestContractSeedDeterminism: two identically configured controllers fed
// the identical telemetry stream must make identical decisions — the
// factory must not introduce hidden global state or time dependence.
func TestContractSeedDeterminism(t *testing.T) {
	for _, name := range sim.ControllerNames() {
		t.Run(name, func(t *testing.T) {
			a, b := build(t, name), build(t, name)
			table := vf.Default()
			levels := make([]int, contractCores)
			outA := make([]int, contractCores)
			outB := make([]int, contractCores)
			for e := 0; e < 60; e++ {
				telA := synthTelemetry(e, levels, table)
				telB := synthTelemetry(e, levels, table)
				a.Decide(&telA, 40, outA)
				b.Decide(&telB, 40, outB)
				for i := range outA {
					if outA[i] != outB[i] {
						t.Fatalf("epoch %d core %d: decisions diverged (%d vs %d)",
							e, i, outA[i], outB[i])
					}
				}
				copy(levels, outA)
			}
		})
	}
}

// TestContractCommCost: the declared NoC cost must be finite and
// non-negative on a real mesh.
func TestContractCommCost(t *testing.T) {
	mesh, err := noc.New(4, 4, noc.Default())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range sim.ControllerNames() {
		t.Run(name, func(t *testing.T) {
			c := build(t, name)
			cost := c.CommPerEpoch(mesh)
			for _, v := range []float64{cost.LatencyS, cost.EnergyJ} {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Fatalf("%s: bad comm cost %+v", name, cost)
				}
			}
		})
	}
}

// greedyRecorder counts, per core, how often the agent's latest action was
// the greedy one. It implements obs.LearnSink without obs.LearnStrider, so
// the controller emits every epoch and ActedGreedy is per-epoch exact.
type greedyRecorder struct {
	greedy []int
	total  []int
}

func (g *greedyRecorder) ObserveLearnEpoch(samples []obs.LearnCoreSample) {
	for i, s := range samples {
		if s.Dead {
			continue
		}
		g.total[i]++
		if s.ActedGreedy {
			g.greedy[i]++
		}
	}
}

// stationaryTelemetry rewrites the synthetic frame so each core's
// IPS/power depend only on its chosen level (phase fixed per core, not
// epoch-cycling): a stationary environment tabular Q-learning can actually
// converge in, unlike the default frame whose drifting phase keeps greedy
// actions churning forever.
func stationaryTelemetry(_ int, tel *manycore.Telemetry) {
	table := vf.Default()
	tel.ChipPowerW = 0
	for i := range tel.Cores {
		op := table.Point(tel.Cores[i].Level)
		phase := float64((i*13)%100) / 100
		tel.Cores[i].IPS = op.FreqHz * (0.4 + 0.8*phase)
		tel.Cores[i].PowerW = 0.3 + 2.5*phase*float64(tel.Cores[i].Level+1)/float64(table.Levels())
		tel.Cores[i].MemBoundedness = phase * 0.9
		tel.ChipPowerW += tel.Cores[i].PowerW
	}
	tel.TruePowerW = tel.ChipPowerW
}

// TestContractConvergedActGreedily: once the online detector declares an
// agent converged (greedy policy stable, TD-error EMA below threshold), that
// agent must keep acting greedily — apart from the residual ε-greedy
// exploration floor. The detector here disables the TD criterion (threshold
// far above the ≤1 reward scale) so the test exercises greedy stability
// alone and stays robust to workload synthesis details.
func TestContractConvergedActGreedily(t *testing.T) {
	c := build(t, "od-rl")
	ls, ok := c.(ctrl.LearnStreamer)
	if !ok {
		t.Fatal("od-rl does not implement ctrl.LearnStreamer")
	}
	lay := learn.New(learn.Options{
		Detector: learn.Detector{StableEpochs: 100, TDThreshold: 100},
	})
	run := lay.BeginRun(obs.RunMeta{Controller: c.Name(), Cores: contractCores}, nil, 0)
	ls.SetLearnSink(run)
	drive(t, c, 6000, func(int) float64 { return 40 }, stationaryTelemetry,
		func(e int, out []int) { requireInRange(t, "od-rl", e, out) })
	converged := map[int]bool{}
	run.DrainConverged(func(cv *obs.ConvergedEvent) { converged[cv.Core] = true })
	if len(converged) == 0 {
		t.Fatal("no agent converged in 6000 epochs under a stability-only detector")
	}
	rec := &greedyRecorder{
		greedy: make([]int, contractCores),
		total:  make([]int, contractCores),
	}
	ls.SetLearnSink(rec)
	drive(t, c, 500, func(int) float64 { return 40 }, stationaryTelemetry,
		func(e int, out []int) { requireInRange(t, "od-rl", e, out) })
	ls.SetLearnSink(nil)
	var greedy, total int
	for core := range converged {
		greedy += rec.greedy[core]
		total += rec.total[core]
	}
	if total == 0 {
		t.Fatal("converged cores recorded no samples")
	}
	if frac := float64(greedy) / float64(total); frac < 0.9 {
		t.Fatalf("converged agents acted greedily only %.1f%% of post-convergence epochs (%d cores, want ≥90%%)",
			frac*100, len(converged))
	}
}

// TestContractNamesRegistered: every factory name builds a controller whose
// Name round-trips, so traces and tables can be joined on it.
func TestContractNamesRegistered(t *testing.T) {
	for _, name := range sim.ControllerNames() {
		c := build(t, name)
		if c.Name() != name {
			t.Errorf("factory name %q builds controller named %q", name, c.Name())
		}
	}
}
