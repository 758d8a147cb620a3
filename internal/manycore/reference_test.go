package manycore

import (
	"fmt"
	"testing"

	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/variation"
	"repro/internal/workload"
)

// referenceStepInto is the pre-optimization epoch kernel, kept as the
// oracle the struct-of-arrays kernel is compared against: per-core
// vf.Point calls, math.Pow leakage, per-epoch Phase() sampling, inline
// sensor-noise draws on the sequential path and fork/join dispatch on the
// parallel one. StepInto is bit-identical to it by construction (not the
// other way around), which the tests below enforce. It maintains none of
// the fast kernel's memo state, so a chip it steps must never be stepped
// by StepInto.
func referenceStepInto(c *Chip, dt float64, tel *Telemetry) {
	if dt <= 0 {
		panic(fmt.Sprintf("manycore: non-positive epoch %g", dt))
	}
	c.resolveIslands()
	n := c.NumCores()
	cores := tel.Cores
	if cap(cores) < n {
		cores = make([]CoreTelemetry, n)
	}
	*tel = Telemetry{EpochS: dt, Cores: cores[:n]}

	if workers := c.stepWorkers(); workers > 1 {
		if c.cfg.SensorNoise != 0 {
			if c.noiseBuf == nil {
				c.noiseBuf = make([]float64, 3*n)
			}
			for i := range c.noiseBuf {
				c.noiseBuf[i] = c.noise.NormFloat64()
			}
			par.ForEachChunk(workers, n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					referenceStepCore(c, i, dt, tel, c.noiseBuf[3*i:3*i+3])
				}
			})
		} else {
			par.ForEachChunk(workers, n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					referenceStepCore(c, i, dt, tel, nil)
				}
			})
		}
	} else {
		for i := 0; i < n; i++ {
			referenceStepCore(c, i, dt, tel, nil)
		}
	}

	for i := 0; i < n; i++ {
		c.instrByCore[i] += c.instrDelta[i]
		c.instrTotal += c.instrDelta[i]
	}

	truePower := c.cfg.Power.ChipW(c.corePowerW)
	c.energyJ += truePower * dt
	c.timeS += dt

	if c.therm != nil {
		c.therm.Step(c.corePowerW, dt)
		c.temps = c.therm.Temps(c.temps)
	}

	tel.TimeS = c.timeS
	tel.TruePowerW = truePower
	tel.ChipPowerW = c.observed(truePower)
	if c.telFilter != nil {
		c.telFilter.FilterTelemetry(tel)
	}
}

// referenceStepCore is the pre-optimization per-core epoch body: it walks
// pointer-rich structs behind interfaces (vf.Point copy, Phase() call,
// transcendental leakage) every epoch. noise, when non-nil, holds the
// core's three pre-drawn standard-normal sensor variates in draw order
// (IPS, power, memory-boundedness); nil draws them inline from the shared
// chip stream, which is only legal on the sequential path.
func referenceStepCore(c *Chip, i int, dt float64, tel *Telemetry, noise []float64) {
	observe := func(k int, v float64) float64 {
		if c.cfg.SensorNoise == 0 {
			return v
		}
		var z float64
		if noise != nil {
			z = noise[k]
		} else {
			z = c.noise.NormFloat64()
		}
		o := v * (1 + c.cfg.SensorNoise*z)
		if o < 0 {
			o = 0
		}
		return o
	}

	if c.dead != nil && c.dead[i] {
		// Powered-off core: retires nothing, burns nothing, workload
		// frozen. The three observe calls still run (on zero, which they
		// return unchanged) so the sensor-noise stream advances exactly as
		// for a live core — dead cores must not shift the draws of their
		// neighbours, or sequential and parallel stepping would diverge.
		observe(0, 0)
		observe(1, 0)
		observe(2, 0)
		c.corePowerW[i] = 0
		c.instrDelta[i] = 0
		tel.Cores[i] = CoreTelemetry{Dead: true}
		return
	}

	ph := c.sources[i].Phase()
	op := c.cfg.VF.Point(c.levels[i])
	temp := c.temps[i]

	stall := 0.0
	if c.transitioned[i] {
		stall = c.cfg.TransitionPenaltyS
		if stall > dt {
			stall = dt
		}
		c.transitioned[i] = false
	}
	active := dt - stall

	// Process variation scales this core's achievable frequency
	// (critical-path spread) and its two power components.
	leakMult, dynMult, freqMult := 1.0, 1.0, 1.0
	if v := c.cfg.Variation; v != nil {
		leakMult, dynMult, freqMult = v.LeakMult[i], v.DynMult[i], v.FreqMult[i]
	}
	// Heterogeneous chips compose core-type multipliers on top:
	// a big core retires more per cycle and burns more per switch.
	if len(c.cfg.CoreTypes) > 0 {
		ct := c.cfg.CoreTypes[c.cfg.TypeOf[i]]
		ph.BaseCPI /= ct.IPCMult
		dynMult *= ct.CeffMult
		leakMult *= ct.LeakMult
	}
	freq := op.FreqHz * freqMult

	ips := ph.IPSAt(freq)
	instr := ips * active

	// Power: full during the active window, leakage-only during the
	// stall (clocks gated while the PLL relocks).
	pDyn := c.cfg.Power.DynamicW(op.VoltageV, freq, ph.Activity) * dynMult
	pLeak := c.cfg.Power.LeakageW(op.VoltageV, temp) * leakMult
	pActive := pDyn + pLeak
	pStall := pLeak
	avgP := (pActive*active + pStall*stall) / dt
	c.corePowerW[i] = avgP

	// Work-coupled sources (barrier apps) progress by retired
	// instructions, so a throttled core genuinely takes longer to
	// reach its barrier.
	var changed bool
	if ws, ok := c.sources[i].(workload.WorkSource); ok {
		changed = ws.AdvanceWork(dt, instr) > 0
	} else {
		changed = c.sources[i].Advance(dt) > 0
	}

	c.instrDelta[i] = instr

	tel.Cores[i] = CoreTelemetry{
		Level:          c.levels[i],
		FreqHz:         freq,
		VoltageV:       op.VoltageV,
		IPS:            observe(0, instr/dt),
		PowerW:         observe(1, avgP),
		TempK:          temp,
		MemBoundedness: clamp01(observe(2, ph.MemBoundednessAt(freq))),
		Instructions:   instr,
		PhaseChanged:   changed,
	}
}

// buildHeteroChip builds a chip exercising every physics feature the
// kernels touch: sensor noise, process variation, big.LITTLE core types,
// 2×2 voltage islands, and (optionally) the thermal loop.
func buildHeteroChip(t testing.TB, w, h, workers int, thermal bool) *Chip {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = w, h
	cfg.Workers = workers
	cfg.ThermalEnabled = thermal
	cfg.IslandW, cfg.IslandH = 2, 2
	cfg.CoreTypes = BigLittleTypes()
	cfg.TypeOf = make([]int, w*h)
	for i := range cfg.TypeOf {
		cfg.TypeOf[i] = i % 2
	}
	vmap, err := variation.Generate(w, h, variation.Default())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Variation = vmap

	base := rng.New(99)
	sources := make([]workload.Source, w*h)
	names := workload.PresetNames()
	for i := range sources {
		p, err := workload.NewProcess(workload.MustPreset(names[i%len(names)]), base.Split())
		if err != nil {
			t.Fatal(err)
		}
		sources[i] = p
	}
	chip, err := New(cfg, sources, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	return chip
}

// stepKernels drives two identically-built chips — one through the
// struct-of-arrays kernel, one through the retained reference kernel —
// and requires every telemetry field, energy and instruction count to
// match exactly, under level churn and mid-run core death.
func stepKernels(t *testing.T, fast, ref *Chip, epochs int) {
	t.Helper()
	n := fast.NumCores()
	levels := fast.Config().VF.Levels()
	var ftel, rtel Telemetry
	for e := 0; e < epochs; e++ {
		fast.StepInto(1e-3, &ftel)
		referenceStepInto(ref, 1e-3, &rtel)
		if ftel.TimeS != rtel.TimeS || ftel.ChipPowerW != rtel.ChipPowerW || ftel.TruePowerW != rtel.TruePowerW {
			t.Fatalf("epoch %d: chip telemetry diverged: fast {t=%v p=%v tp=%v} ref {t=%v p=%v tp=%v}",
				e, ftel.TimeS, ftel.ChipPowerW, ftel.TruePowerW, rtel.TimeS, rtel.ChipPowerW, rtel.TruePowerW)
		}
		for i := 0; i < n; i++ {
			if ftel.Cores[i] != rtel.Cores[i] {
				t.Fatalf("epoch %d core %d:\nfast %+v\nref  %+v", e, i, ftel.Cores[i], rtel.Cores[i])
			}
		}
		// Level churn exercises transition stalls and every memo level.
		for i := 0; i < n; i++ {
			lvl := (e*3 + i) % levels
			fast.SetLevel(i, lvl)
			ref.SetLevel(i, lvl)
		}
		// Kill a couple of cores mid-run: dead cores must keep the
		// noise streams aligned in both kernels.
		if e == epochs/2 {
			fast.FailCore(3)
			ref.FailCore(3)
			fast.FailCore(n - 1)
			ref.FailCore(n - 1)
		}
	}
	if fast.EnergyJ() != ref.EnergyJ() {
		t.Fatalf("energy diverged: fast %v ref %v", fast.EnergyJ(), ref.EnergyJ())
	}
	if fast.Instructions() != ref.Instructions() {
		t.Fatalf("instructions diverged: fast %v ref %v", fast.Instructions(), ref.Instructions())
	}
	for i := 0; i < n; i++ {
		if fast.CoreInstructions(i) != ref.CoreInstructions(i) {
			t.Fatalf("core %d instructions diverged", i)
		}
	}
}

// TestReferenceKernelBitEqual is the oracle for the SoA kernel rewrite:
// with the thermal loop on and off, sequentially and sharded, the fast
// kernel must reproduce the pre-optimization kernel bit for bit.
func TestReferenceKernelBitEqual(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
		thermal bool
	}{
		{"thermal-j1", 1, true},
		{"thermal-j4", 4, true},
		{"fixedtemp-j1", 1, false},
		{"fixedtemp-j4", 4, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fast := buildHeteroChip(t, 16, 16, tc.workers, tc.thermal)
			ref := buildHeteroChip(t, 16, 16, tc.workers, tc.thermal)
			defer fast.Close()
			defer ref.Close()
			stepKernels(t, fast, ref, 80)
		})
	}
}

// TestReferenceKernelBitEqualHomogeneous covers the no-variation,
// no-hetero, no-island fast paths (the default platform shape) plus the
// noise-free configuration, where the kernels must also agree. The raw
// inputs (noise and thermal loop both off) isolate the kernel itself,
// sequentially and sharded.
func TestReferenceKernelBitEqualHomogeneous(t *testing.T) {
	for _, tc := range []struct {
		noise   float64
		thermal bool
		workers int
	}{
		{0, true, 4},
		{0.02, true, 4},
		{0, false, 1},
		{0, false, 4},
	} {
		cfgMod := func(workers int) *Chip {
			cfg := DefaultConfig()
			cfg.Width, cfg.Height = 16, 16
			cfg.Workers = workers
			cfg.SensorNoise = tc.noise
			cfg.ThermalEnabled = tc.thermal
			base := rng.New(41)
			sources := make([]workload.Source, 256)
			names := workload.PresetNames()
			for i := range sources {
				p, err := workload.NewProcess(workload.MustPreset(names[i%len(names)]), base.Split())
				if err != nil {
					t.Fatal(err)
				}
				sources[i] = p
			}
			chip, err := New(cfg, sources, rng.New(13))
			if err != nil {
				t.Fatal(err)
			}
			return chip
		}
		fast, ref := cfgMod(tc.workers), cfgMod(tc.workers)
		defer fast.Close()
		defer ref.Close()
		stepKernels(t, fast, ref, 60)
	}
}

// TestReferenceKernelBitEqualBarrier covers shared-state WorkSource lanes,
// whose phase flips when another lane releases the barrier or dispatches a
// job, with no change signal from the lane's own AdvanceWork. The phase
// memo keys on PhaseIndex alone, so a memo hit must still replay the
// reference kernel's bits. Three chips: barrier lanes on the default
// chip; barrier lanes on a big.LITTLE chip with process variation, which
// takes the memo's ipcMult and per-core multiplier path; and job-system
// lanes. stepKernels kills two cores halfway, so the barrier stalls on
// lanes that can never arrive for the second half of each run.
func TestReferenceKernelBitEqualBarrier(t *testing.T) {
	const w, h = 8, 8
	work := workload.Phase{
		Class: workload.Compute, BaseCPI: 0.85, MPKI: 2.0,
		MemLatencyNs: 75, Activity: 0.9,
	}
	barrierLanes := func(t *testing.T) []workload.Source {
		app, err := workload.NewBarrierApp(w*h, work, 30e6, 0.2, rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		sources := make([]workload.Source, w*h)
		for i := range sources {
			sources[i] = app.Lane(i)
		}
		return sources
	}
	jobLanes := func(t *testing.T) []workload.Source {
		// ~1 ms jobs arriving at about the chip's service rate, so lanes
		// flip between running and idle every few epochs.
		sys, err := workload.NewJobSystem(w*h, work, 40e3, 2e6, rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		sources := make([]workload.Source, w*h)
		for i := range sources {
			sources[i] = sys.Lane(i)
		}
		return sources
	}
	for _, tc := range []struct {
		name    string
		sources func(*testing.T) []workload.Source
		hetero  bool
	}{
		{"barrier", barrierLanes, false},
		{"barrier-biglittle-variation", barrierLanes, true},
		{"jobs", jobLanes, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *Chip {
				cfg := DefaultConfig()
				cfg.Width, cfg.Height = w, h
				if tc.hetero {
					cfg.CoreTypes = BigLittleTypes()
					cfg.TypeOf = make([]int, w*h)
					for i := range cfg.TypeOf {
						cfg.TypeOf[i] = i % 2
					}
					vmap, err := variation.Generate(w, h, variation.Default())
					if err != nil {
						t.Fatal(err)
					}
					cfg.Variation = vmap
				}
				chip, err := New(cfg, tc.sources(t), rng.New(6))
				if err != nil {
					t.Fatal(err)
				}
				return chip
			}
			fast, ref := build(), build()
			defer fast.Close()
			defer ref.Close()
			stepKernels(t, fast, ref, 120)
		})
	}
}
