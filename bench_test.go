// Benchmarks regenerating the paper's evaluation: one testing.B benchmark
// per table/figure (see DESIGN.md's experiment index), plus controller
// decision micro-benchmarks. The experiment benchmarks run in Quick mode so
// `go test -bench=.` finishes in minutes; `cmd/odrl-bench` (no -quick) is
// the full-fidelity path recorded in EXPERIMENTS.md.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/experiments"
	"repro/internal/manycore"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/vf"
	"repro/internal/workload"
)

// benchExperiment runs one experiment per iteration at a fixed seed. Each
// iteration runs every simulation the experiment needs (F2-F4 each run
// their own benchmark × controller grid), so ns/op is the experiment's
// whole cost. The seed stays fixed so that every iteration times the same
// runs and b.N calibration extrapolates from representative work.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	run, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiments.Default()
	cfg.Quick = true
	for i := 0; i < b.N; i++ {
		if _, err := run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClaims(b *testing.B)                     { benchExperiment(b, "CLAIMS") }
func BenchmarkT1_Platform(b *testing.B)                { benchExperiment(b, "T1") }
func BenchmarkT2_Workloads(b *testing.B)               { benchExperiment(b, "T2") }
func BenchmarkF1_PowerTrace(b *testing.B)              { benchExperiment(b, "F1") }
func BenchmarkF2_Overshoot(b *testing.B)               { benchExperiment(b, "F2") }
func BenchmarkF3_ThroughputPerOverEnergy(b *testing.B) { benchExperiment(b, "F3") }
func BenchmarkF4_EnergyEfficiency(b *testing.B)        { benchExperiment(b, "F4") }
func BenchmarkF5_ControllerScaling(b *testing.B)       { benchExperiment(b, "F5") }
func BenchmarkF6_Convergence(b *testing.B)             { benchExperiment(b, "F6") }
func BenchmarkF7_BudgetSweep(b *testing.B)             { benchExperiment(b, "F7") }
func BenchmarkF8_CoreScaling(b *testing.B)             { benchExperiment(b, "F8") }
func BenchmarkF9_Ablation(b *testing.B)                { benchExperiment(b, "F9") }
func BenchmarkF10_Thermal(b *testing.B)                { benchExperiment(b, "F10") }

// syntheticTelemetry mirrors the F5 harness for the micro-benchmarks below.
func syntheticTelemetry(n int) *manycore.Telemetry {
	table := vf.Default()
	pp := power.Default()
	r := rng.New(7)
	tel := &manycore.Telemetry{EpochS: 1e-3, Cores: make([]manycore.CoreTelemetry, n)}
	total := pp.UncoreW
	for i := range tel.Cores {
		lvl := r.Intn(table.Levels())
		op := table.Point(lvl)
		mb := r.Float64()
		pw := pp.CoreW(op.VoltageV, op.FreqHz, 0.3+0.6*r.Float64(), 330)
		tel.Cores[i] = manycore.CoreTelemetry{
			Level: lvl, FreqHz: op.FreqHz, VoltageV: op.VoltageV,
			IPS: op.FreqHz / (0.8 + 2*mb), PowerW: pw, MemBoundedness: mb, TempK: 330,
		}
		total += pw
	}
	tel.TruePowerW, tel.ChipPowerW = total, total
	return tel
}

// benchDecide measures a single controller's per-Decide latency — the raw
// numbers behind the F5 scaling table.
func benchDecide(b *testing.B, name string, cores int) {
	b.Helper()
	env := sim.DefaultEnv(cores)
	c, err := sim.NewController(name, env)
	if err != nil {
		b.Fatal(err)
	}
	tel := syntheticTelemetry(cores)
	budget := 1.4*float64(cores) + power.Default().UncoreW
	out := make([]int, cores)
	c.Decide(tel, budget, out) // warm allocations
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Decide(tel, budget, out)
	}
}

// recordTelemetry steps a chip built from opts under the named controller
// for the given number of epochs and returns a copy of every epoch's
// telemetry.
func recordTelemetry(b *testing.B, opts sim.Options, name string, epochs int) []manycore.Telemetry {
	b.Helper()
	chip, _, err := sim.NewChip(opts)
	if err != nil {
		b.Fatal(err)
	}
	defer chip.Close()
	env, err := sim.EnvFor(opts)
	if err != nil {
		b.Fatal(err)
	}
	c, err := sim.NewController(name, env)
	if err != nil {
		b.Fatal(err)
	}
	out := make([]int, opts.Cores)
	frames := make([]manycore.Telemetry, epochs)
	for e := range frames {
		tel := chip.Step(opts.EpochS)
		frames[e] = tel
		frames[e].Cores = append([]manycore.CoreTelemetry(nil), tel.Cores...)
		c.Decide(&tel, opts.BudgetW, out)
		for i, l := range out {
			chip.SetLevel(i, l)
		}
	}
	return frames
}

// benchDecideODRLStream times OD-RL's Decide on a recorded telemetry
// stream instead of one frozen frame. Set-up runs a seeded mix chip of the
// given core count under OD-RL for the given number of epochs and copies
// each epoch's telemetry; the timed loop replays those frames in order,
// wrapping, into a fresh sequential controller. Its agents then read the
// Q rows of the states a real run visits, which replaying one frame cannot
// show. No chip steps between two Decides, so the tables stay warmer in
// cache than in a run.
func benchDecideODRLStream(b *testing.B, cores, epochs int) {
	b.Helper()
	opts := sim.DefaultOptions()
	opts.Cores = cores
	opts.BudgetW = 0.9*float64(cores) + power.Default().UncoreW
	opts.Workers = 1
	frames := recordTelemetry(b, opts, "od-rl", epochs)
	env, err := sim.EnvFor(opts)
	if err != nil {
		b.Fatal(err)
	}
	c, err := sim.NewController("od-rl", env)
	if err != nil {
		b.Fatal(err)
	}
	out := make([]int, opts.Cores)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Decide(&frames[i%len(frames)], opts.BudgetW, out)
	}
}

// BenchmarkDecideODRL256Stream replays one simulated second of a 256-core
// run.
func BenchmarkDecideODRL256Stream(b *testing.B) { benchDecideODRLStream(b, 256, 1000) }

// BenchmarkDecideODRL1024Stream replays a quarter second of a 1024-core
// run: the same 18 MB of recorded frames as the 256-core stream, over a
// policy four times larger (10.5 MB of Q-tables).
func BenchmarkDecideODRL1024Stream(b *testing.B) { benchDecideODRLStream(b, 1024, 250) }

// BenchmarkDecideMaxBIPS64Stream times MaxBIPS's knapsack on recorded
// telemetry. Set-up runs a seeded 64-core ferret chip at 55 W under
// MaxBIPS for 600 epochs and copies each epoch's telemetry; the timed loop
// replays those frames into a controller with cadence 1, so every Decide
// solves. BenchmarkDecideMaxBIPS64 replays one synthetic frame at the
// default cadence, where 9 of every 10 calls hold the last decision.
func BenchmarkDecideMaxBIPS64Stream(b *testing.B) {
	opts := sim.DefaultOptions()
	opts.Cores = 64
	opts.Workload = "ferret"
	opts.BudgetW = 55
	opts.Seed = 3
	opts.Workers = 1
	frames := recordTelemetry(b, opts, "maxbips", 600)
	env, err := sim.EnvFor(opts)
	if err != nil {
		b.Fatal(err)
	}
	env.CadenceEpochs = 1
	c, err := sim.NewController("maxbips", env)
	if err != nil {
		b.Fatal(err)
	}
	out := make([]int, opts.Cores)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Decide(&frames[i%len(frames)], opts.BudgetW, out)
	}
}

func BenchmarkDecideODRL64(b *testing.B)      { benchDecide(b, "od-rl", 64) }
func BenchmarkDecideODRL256(b *testing.B)     { benchDecide(b, "od-rl", 256) }
func BenchmarkDecideODRL1024(b *testing.B)    { benchDecide(b, "od-rl", 1024) }
func BenchmarkDecideMaxBIPS64(b *testing.B)   { benchDecide(b, "maxbips", 64) }
func BenchmarkDecideMaxBIPS256(b *testing.B)  { benchDecide(b, "maxbips", 256) }
func BenchmarkDecideSteepest256(b *testing.B) { benchDecide(b, "steepest-drop", 256) }
func BenchmarkDecidePID256(b *testing.B)      { benchDecide(b, "pid", 256) }

// BenchmarkChipEpoch measures raw simulator throughput: one 64-core epoch
// with the thermal loop closed.
func BenchmarkChipEpoch64(b *testing.B) {
	cfg := manycore.DefaultConfig()
	sources := make([]workload.Source, 64)
	base := rng.New(3)
	for i := range sources {
		p, err := workload.NewProcess(workload.MustPreset("ferret"), base.Split())
		if err != nil {
			b.Fatal(err)
		}
		sources[i] = p
	}
	chip, err := manycore.New(cfg, sources, rng.New(4))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chip.Step(1e-3)
	}
}

// buildKernelChip builds the epoch-kernel benchmark chip: a preset-mix
// workload (one preset per core, round-robin) at the given core count,
// stepping sequentially. raw strips sensor noise and the thermal loop,
// isolating the epoch kernel itself from the irreducible per-core RNG
// draws and the Euler integrator.
func buildKernelChip(b *testing.B, cores int, raw bool) *manycore.Chip {
	b.Helper()
	w, h, err := sim.GridFor(cores)
	if err != nil {
		b.Fatal(err)
	}
	cfg := manycore.DefaultConfig()
	cfg.Width, cfg.Height = w, h
	cfg.Workers = 1
	if raw {
		cfg.SensorNoise = 0
		cfg.ThermalEnabled = false
	}
	sources := make([]workload.Source, cores)
	base := rng.New(3)
	names := workload.PresetNames()
	for i := range sources {
		p, err := workload.NewProcess(workload.MustPreset(names[i%len(names)]), base.Split())
		if err != nil {
			b.Fatal(err)
		}
		sources[i] = p
	}
	chip, err := manycore.New(cfg, sources, rng.New(4))
	if err != nil {
		b.Fatal(err)
	}
	return chip
}

// benchStepKernel measures single-thread epoch throughput of the
// struct-of-arrays kernel. churn, when set, retargets one core in eight
// per epoch so transition stalls and memo refills are represented the way
// an exploring controller produces them; the steady variant holds levels
// fixed and measures the kernel alone (phases still evolve underneath
// either way).
func benchStepKernel(b *testing.B, cores int, raw, churn bool) {
	b.Helper()
	chip := buildKernelChip(b, cores, raw)
	defer chip.Close()
	stepChip(b, chip, churn)
}

// stepChip is the timed loop of the StepKernel benchmarks.
func stepChip(b *testing.B, chip *manycore.Chip, churn bool) {
	b.Helper()
	cores := chip.NumCores()
	levels := chip.Config().VF.Levels()
	var tel manycore.Telemetry
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chip.StepInto(1e-3, &tel)
		if churn {
			for c := i % 8; c < cores; c += 8 {
				chip.SetLevel(c, (chip.Level(c)+1)%levels)
			}
		}
	}
}

func BenchmarkStepKernel64(b *testing.B)           { benchStepKernel(b, 64, false, true) }
func BenchmarkStepKernel256(b *testing.B)          { benchStepKernel(b, 256, false, true) }
func BenchmarkStepKernel1024(b *testing.B)         { benchStepKernel(b, 1024, false, true) }
func BenchmarkStepKernelRaw256(b *testing.B)       { benchStepKernel(b, 256, true, true) }
func BenchmarkStepKernelRawSteady256(b *testing.B) { benchStepKernel(b, 256, true, false) }

// BenchmarkStepKernelBarrier256 measures the shared-state lane path: 256
// lanes of one barrier app (the sim "barrier" workload) under level churn,
// with one core failed before the timed loop. Its lane never arrives, so
// the barrier stalls and the other lanes settle into waiting: the shape a
// dead core leaves behind in the benchmark's barrier-256-faults workload.
func BenchmarkStepKernelBarrier256(b *testing.B) {
	const cores = 256
	w, h, err := sim.GridFor(cores)
	if err != nil {
		b.Fatal(err)
	}
	cfg := manycore.DefaultConfig()
	cfg.Width, cfg.Height = w, h
	cfg.Workers = 1
	work := workload.Phase{
		Class: workload.Compute, BaseCPI: 0.85, MPKI: 2.0,
		MemLatencyNs: 75, Activity: 0.9,
	}
	app, err := workload.NewBarrierApp(cores, work, 30e6, 0.2, rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	sources := make([]workload.Source, cores)
	for i := range sources {
		sources[i] = app.Lane(i)
	}
	chip, err := manycore.New(cfg, sources, rng.New(4))
	if err != nil {
		b.Fatal(err)
	}
	defer chip.Close()
	chip.FailCore(cores / 2)
	stepChip(b, chip, true)
}

// benchStepParallel measures chip stepping throughput at a core count and
// worker count. Results are bit-identical across worker counts, so the
// workers axis isolates the parallel layer's scheduling cost vs speedup;
// chips below the sharding threshold (128 cores) stay sequential.
func benchStepParallel(b *testing.B, cores, workers int) {
	b.Helper()
	w, h, err := sim.GridFor(cores)
	if err != nil {
		b.Fatal(err)
	}
	cfg := manycore.DefaultConfig()
	cfg.Width, cfg.Height = w, h
	cfg.Workers = workers
	sources := make([]workload.Source, cores)
	base := rng.New(3)
	for i := range sources {
		p, err := workload.NewProcess(workload.MustPreset("ferret"), base.Split())
		if err != nil {
			b.Fatal(err)
		}
		sources[i] = p
	}
	chip, err := manycore.New(cfg, sources, rng.New(4))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chip.Step(1e-3)
	}
}

func BenchmarkStepParallel64(b *testing.B)   { benchStepParallel(b, 64, 0) }
func BenchmarkStepParallel256(b *testing.B)  { benchStepParallel(b, 256, 0) }
func BenchmarkStepParallel1024(b *testing.B) { benchStepParallel(b, 1024, 0) }

func BenchmarkStepSequential256(b *testing.B)  { benchStepParallel(b, 256, 1) }
func BenchmarkStepSequential1024(b *testing.B) { benchStepParallel(b, 1024, 1) }

// BenchmarkSweepParallel measures the experiment fan-out layer: the F7
// budget sweep's independent runs dispatched across all CPUs vs one.
func BenchmarkSweepParallel(b *testing.B) {
	cfg := experiments.Default()
	cfg.Quick = true
	for _, workers := range []int{1, 0} {
		workers := workers
		name := "sequential"
		if workers == 0 {
			name = "allCPUs"
		}
		b.Run(name, func(b *testing.B) {
			cfg := cfg
			cfg.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := experiments.F7BudgetSweep(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEndToEnd runs a complete short capped simulation with OD-RL —
// the cost of one experiment data point.
func BenchmarkEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := sim.DefaultOptions()
		opts.Cores = 16
		opts.WarmupS = 0.1
		opts.MeasureS = 0.2
		opts.Seed = uint64(i + 1)
		c, err := sim.NewController("od-rl", sim.DefaultEnv(opts.Cores))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(opts, c); err != nil {
			b.Fatal(err)
		}
	}
}

// Example of the public API; also asserts it compiles against the façade.
func ExampleRun() {
	opts := DefaultOptions()
	opts.Cores = 4
	opts.BudgetW = 12
	opts.WarmupS = 0.01
	opts.MeasureS = 0.02
	c, err := NewController("static", DefaultEnv(opts.Cores))
	if err != nil {
		panic(err)
	}
	res, err := Run(opts, c)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Summary.Controller)
	// Output: static
}

func BenchmarkF11_Variation(b *testing.B) { benchExperiment(b, "F11") }
func BenchmarkF12_WarmStart(b *testing.B) { benchExperiment(b, "F12") }
func BenchmarkF13_Islands(b *testing.B)   { benchExperiment(b, "F13") }
func BenchmarkF14_Barrier(b *testing.B)   { benchExperiment(b, "F14") }
func BenchmarkF15_Seeds(b *testing.B)     { benchExperiment(b, "F15") }
func BenchmarkF16_Server(b *testing.B)    { benchExperiment(b, "F16") }
func BenchmarkF17_Hetero(b *testing.B)    { benchExperiment(b, "F17") }
func BenchmarkF18_Faults(b *testing.B)    { benchExperiment(b, "F18") }
func BenchmarkF19_Learning(b *testing.B)  { benchExperiment(b, "F19") }
