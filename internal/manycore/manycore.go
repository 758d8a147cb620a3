// Package manycore is the epoch-driven many-core performance simulator that
// replaces the paper's architectural simulator.
//
// Each core runs one workload.Source and sits at one VF operating point.
// Per control epoch (typically 1 ms) the simulator computes instructions
// retired from the phase's CPI(f) model, power from the power model (with
// the thermal model closing the leakage–temperature loop), and produces the
// telemetry a DVFS controller would read from performance counters and
// power sensors — optionally corrupted with multiplicative Gaussian sensor
// noise. DVFS transitions charge a PLL-relock stall during which the core
// retires nothing and burns leakage only.
//
// The simulator is intentionally analytic rather than cycle-accurate: every
// controller in this repository observes only per-epoch aggregates, so an
// analytic model that reproduces the aggregate surface (sub-linear
// frequency scaling, activity-dependent power, thermal inertia) exercises
// the identical control problem at a fraction of the cost.
package manycore

import (
	"fmt"

	"repro/internal/par"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/thermal"
	"repro/internal/variation"
	"repro/internal/vf"
	"repro/internal/workload"
)

// parallelMinCores is the core count below which Step always runs
// sequentially: the per-core epoch body costs a few hundred nanoseconds,
// so goroutine dispatch only pays for itself on large chips.
const parallelMinCores = 128

// Config describes one chip.
type Config struct {
	// Width and Height give the core grid; core count is Width*Height.
	Width, Height int
	// VF is the table of operating points shared by all cores.
	VF *vf.Table
	// Power holds the technology power constants.
	Power power.Params
	// Thermal holds the RC network constants; only used when ThermalEnabled.
	Thermal thermal.Params
	// ThermalEnabled closes the leakage–temperature loop. When false, all
	// cores are held at Thermal.AmbientK.
	ThermalEnabled bool
	// SensorNoise is the relative standard deviation of multiplicative
	// Gaussian noise applied to IPS/power/mem-boundedness telemetry.
	// Zero disables noise. True (noise-free) power is still reported
	// separately for energy accounting.
	SensorNoise float64
	// TransitionPenaltyS is the stall charged to a core on a VF change
	// (PLL relock + voltage ramp), typically ~10 µs.
	TransitionPenaltyS float64
	// InitialLevel is the VF level all cores start at.
	InitialLevel int
	// Variation optionally applies per-core process-variation multipliers
	// to leakage and dynamic power; its grid must match Width×Height.
	// Controllers are never told about it — they only see its effect in
	// the power telemetry, exactly as on real silicon.
	Variation *variation.Map
	// IslandW and IslandH group cores into rectangular voltage-frequency
	// islands (VFIs) sharing one operating point. Zero means 1 (per-core
	// DVFS). Each island runs at the highest level requested by any of its
	// cores — the standard "max request wins" policy of shared voltage
	// domains. Island dimensions must divide the grid dimensions.
	IslandW, IslandH int
	// CoreTypes and TypeOf describe a heterogeneous (big.LITTLE-style)
	// chip: TypeOf[i] indexes into CoreTypes for core i. Empty CoreTypes
	// means a homogeneous chip. Controllers are not told core types — as
	// with variation, telemetry is their only window.
	CoreTypes []CoreType
	TypeOf    []int
	// Workers bounds the goroutines sharding Step's per-core loop:
	// 0 uses one worker per CPU, 1 forces sequential stepping. Parallel
	// stepping is bit-identical to sequential (sensor-noise draws are
	// pre-split in core order before dispatch) and only engages for chips
	// of at least parallelMinCores whose workload sources are independent
	// (no shared-state WorkSource lanes).
	Workers int
}

// CoreType is one microarchitecture in a heterogeneous chip. Multipliers
// are relative to the nominal core the power/CPI models describe.
type CoreType struct {
	Name string
	// IPCMult scales pipeline throughput: effective base CPI is
	// BaseCPI / IPCMult. A big out-of-order core has IPCMult > 1.
	IPCMult float64
	// CeffMult scales switched capacitance (dynamic power).
	CeffMult float64
	// LeakMult scales leakage current (bigger cores leak more).
	LeakMult float64
}

// Validate reports the first invalid field.
func (ct CoreType) Validate() error {
	switch {
	case ct.Name == "":
		return fmt.Errorf("manycore: core type with empty name")
	case ct.IPCMult <= 0:
		return fmt.Errorf("manycore: core type %q has non-positive IPCMult %g", ct.Name, ct.IPCMult)
	case ct.CeffMult <= 0:
		return fmt.Errorf("manycore: core type %q has non-positive CeffMult %g", ct.Name, ct.CeffMult)
	case ct.LeakMult <= 0:
		return fmt.Errorf("manycore: core type %q has non-positive LeakMult %g", ct.Name, ct.LeakMult)
	}
	return nil
}

// BigLittleTypes returns the standard heterogeneous pair used by the F17
// experiment: a wide out-of-order core and an efficient in-order one.
func BigLittleTypes() []CoreType {
	return []CoreType{
		{Name: "big", IPCMult: 1.4, CeffMult: 1.7, LeakMult: 1.6},
		{Name: "little", IPCMult: 0.7, CeffMult: 0.45, LeakMult: 0.4},
	}
}

// DefaultConfig returns a 64-core (8×8) chip with the default technology
// models, thermal loop on, 2% sensor noise and a 10 µs transition stall.
func DefaultConfig() Config {
	return Config{
		Width:              8,
		Height:             8,
		VF:                 vf.Default(),
		Power:              power.Default(),
		Thermal:            thermal.Default(),
		ThermalEnabled:     true,
		SensorNoise:        0.02,
		TransitionPenaltyS: 10e-6,
		InitialLevel:       0,
	}
}

// Validate reports the first invalid configuration field.
func (c Config) Validate() error {
	switch {
	case c.Width <= 0 || c.Height <= 0:
		return fmt.Errorf("manycore: invalid grid %dx%d", c.Width, c.Height)
	case c.VF == nil:
		return fmt.Errorf("manycore: nil VF table")
	case c.SensorNoise < 0:
		return fmt.Errorf("manycore: negative sensor noise %g", c.SensorNoise)
	case c.TransitionPenaltyS < 0:
		return fmt.Errorf("manycore: negative transition penalty %g", c.TransitionPenaltyS)
	case c.InitialLevel < 0 || c.InitialLevel >= c.VF.Levels():
		return fmt.Errorf("manycore: initial level %d out of range", c.InitialLevel)
	case c.Workers < 0:
		return fmt.Errorf("manycore: negative worker count %d", c.Workers)
	}
	if err := c.Power.Validate(); err != nil {
		return err
	}
	if c.ThermalEnabled {
		if err := c.Thermal.Validate(); err != nil {
			return err
		}
	}
	if c.Variation != nil {
		if err := c.Variation.Validate(); err != nil {
			return err
		}
		if c.Variation.W != c.Width || c.Variation.H != c.Height {
			return fmt.Errorf("manycore: variation map is %dx%d, chip is %dx%d",
				c.Variation.W, c.Variation.H, c.Width, c.Height)
		}
	}
	iw, ih := c.islandDims()
	if iw < 1 || ih < 1 {
		return fmt.Errorf("manycore: invalid island dims %dx%d", iw, ih)
	}
	if c.Width%iw != 0 || c.Height%ih != 0 {
		return fmt.Errorf("manycore: island %dx%d does not tile grid %dx%d",
			iw, ih, c.Width, c.Height)
	}
	if len(c.CoreTypes) > 0 {
		for _, ct := range c.CoreTypes {
			if err := ct.Validate(); err != nil {
				return err
			}
		}
		if len(c.TypeOf) != c.Width*c.Height {
			return fmt.Errorf("manycore: TypeOf has %d entries for %d cores",
				len(c.TypeOf), c.Width*c.Height)
		}
		for i, ty := range c.TypeOf {
			if ty < 0 || ty >= len(c.CoreTypes) {
				return fmt.Errorf("manycore: core %d has type %d of %d", i, ty, len(c.CoreTypes))
			}
		}
	} else if len(c.TypeOf) != 0 {
		return fmt.Errorf("manycore: TypeOf set without CoreTypes")
	}
	return nil
}

// islandDims returns the island tile size with zeros defaulted to 1.
func (c Config) islandDims() (int, int) {
	iw, ih := c.IslandW, c.IslandH
	if iw == 0 {
		iw = 1
	}
	if ih == 0 {
		ih = 1
	}
	return iw, ih
}

// CoreTelemetry is what the control plane observes about one core after an
// epoch. IPS, PowerW and MemBoundedness carry sensor noise when configured;
// Instructions is the true retired count (used only for metrics, never by
// controllers).
type CoreTelemetry struct {
	Level          int
	FreqHz         float64
	VoltageV       float64
	IPS            float64
	PowerW         float64
	TempK          float64
	MemBoundedness float64
	Instructions   float64
	PhaseChanged   bool
	// Dead marks a core that has failed permanently (see Chip.FailCore).
	// It is the machine-check signal a real chip raises on core failure:
	// controllers may use it to reclaim the core's budget share, and a dead
	// core's other fields are all zero.
	Dead bool
}

// TelemetryFilter rewrites the telemetry controllers observe, at the
// sensor-read boundary: Chip.Step invokes it once per epoch, after the
// per-core loop, on the telemetry it is about to return. Implementations
// must only modify observed fields (per-core readings and ChipPowerW),
// never TruePowerW or Instructions, and must be cheap — they run on the
// sequential path of every epoch. Package fault provides the standard
// implementation.
type TelemetryFilter interface {
	FilterTelemetry(tel *Telemetry)
}

// ActuationFilter intercepts VF level requests at the SetLevel boundary:
// it receives the validated requested level and the core's current
// effective level, and returns the level actually latched. Returned levels
// are clamped to the table range. Package fault provides the standard
// implementation (dropped or clamped actuations).
type ActuationFilter interface {
	FilterLevel(core, requested, current int) int
}

// Telemetry is the chip-level epoch report.
type Telemetry struct {
	// TimeS is cumulative simulated time at the end of the epoch.
	TimeS float64
	// EpochS is the epoch length.
	EpochS float64
	// ChipPowerW is the observed (noisy) total chip power.
	ChipPowerW float64
	// TruePowerW is the exact total chip power, for energy accounting.
	TruePowerW float64
	// Cores holds per-core observations.
	Cores []CoreTelemetry
}

// Chip is one simulated many-core processor.
type Chip struct {
	cfg          Config
	sources      []workload.Source
	requested    []int // per-core level requests from the controller
	levels       []int // effective levels after island resolution
	transitioned []bool
	therm        *thermal.Model
	noise        *rng.RNG

	timeS       float64
	energyJ     float64
	instrTotal  float64
	instrByCore []float64

	// fault-injection hooks; nil (the default) costs one branch per epoch
	// (telFilter) or per SetLevel (actFilter). dead is allocated lazily by
	// the first FailCore.
	telFilter TelemetryFilter
	actFilter ActuationFilter
	dead      []bool

	// indepSources records that no source shares state with another (no
	// WorkSource lanes), which is what licenses parallel stepping.
	indepSources bool
	// hooked is "actFilter installed or some core dead": the one flag
	// SetLevel's inlined fast path tests before taking setLevelSlow.
	// FailCore sets it; SetActuationFilter recomputes it.
	hooked bool

	// scratch buffers reused across epochs
	corePowerW []float64
	temps      []float64
	instrDelta []float64
	noiseBuf   []float64 // the epoch's sensor noise: 3 per core, then the meter's

	// Struct-of-arrays kernel state, built once in New. Levels are
	// discrete, so everything level-indexed is precomputed: freqsHz and
	// voltsV alias the VF table's slabs, lut holds the leakage Pow prefix
	// per level, and fixedLeakW is the full per-level leakage when the
	// thermal loop is off (temperature then never leaves ambient).
	nLevels   int
	freqsHz   []float64
	voltsV    []float64
	lut       *power.LUT
	fixedLeak []float64
	// Per-core multiplier slabs fold process variation and core-type
	// heterogeneity into one multiply each, combined in the reference
	// kernel's order (variation first, then core type) so the products
	// round identically. ipcMult is the per-core IPCMult divisor for
	// BaseCPI; hetero gates the division so homogeneous chips skip it
	// entirely, as the reference kernel does.
	freqMultC []float64
	dynMultC  []float64
	leakMultC []float64
	ipcMult   []float64
	hetero    bool
	uniform   bool
	// workSrcs caches the WorkSource type assertion per core at install
	// time; nil means a plain Source. A shared-state lane advances by
	// retired work, and its phase can flip when another lane advances, so
	// the phase memo below keys every core on its PhaseIndex rather than
	// on a change signal from the core's own Advance.
	workSrcs []workload.WorkSource
	// procSrcs caches the dominant concrete source type per core, again
	// at install time, so the epoch kernel calls Advance directly rather
	// than through the interface table; nil falls back to the interface
	// call. Same method, same arithmetic — devirtualization only.
	procSrcs []*workload.Process
	// Phase memo: memoIPS/memoDyn/memoMemB[i*nLevels+l] cache the three
	// phase×level-derived quantities, valid while memoVer[i*nLevels+l]
	// equals core i's phase key, its source's PhaseIndex()+1. The Source
	// contract makes Phase a pure function of PhaseIndex, so a key names
	// one phase value for the source's lifetime. memoVer starts at 0, so
	// every slot starts invalid. A source reporting a negative PhaseIndex
	// would key uint32(-1)+1 = 0, the empty-slot value, so it gets key 0,
	// which skips the memo and samples the phase fresh.
	// phCache/phVer additionally cache the scaled (and
	// heterogeneity-adjusted) Phase value itself per core under the same
	// key, so a memo miss for a new level re-derives only the
	// level-dependent physics, not the interface call and core-type
	// adjustment. Cached values are produced by the exact instruction
	// sequence the reference kernel runs, so a hit replays identical bits.
	memoVer  []uint32
	memoIPS  []float64
	memoDyn  []float64
	memoMemB []float64
	phCache  []workload.Phase
	phVer    []uint32
	// islandsTrivial marks 1×1 islands (per-core DVFS), enabling the
	// branch-light request-latch loop in resolveIslands.
	islandsTrivial bool

	// pool holds the persistent shard workers for parallel stepping,
	// created on first use and released by Close (or a finalizer).
	pool    *par.Pool
	stepFn  func(lo, hi int)
	stepDt  float64
	stepTel *Telemetry
}

// New builds a chip running the given per-core workload sources. The number
// of sources must equal Width*Height. The RNG seeds the sensor-noise stream.
func New(cfg Config, sources []workload.Source, r *rng.RNG) (*Chip, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Width * cfg.Height
	if len(sources) != n {
		return nil, fmt.Errorf("manycore: %d sources for %d cores", len(sources), n)
	}
	for i, s := range sources {
		if s == nil {
			return nil, fmt.Errorf("manycore: nil source for core %d", i)
		}
	}
	if r == nil {
		return nil, fmt.Errorf("manycore: nil rng")
	}
	nl := cfg.VF.Levels()
	c := &Chip{
		cfg:          cfg,
		sources:      sources,
		requested:    make([]int, n),
		levels:       make([]int, n),
		transitioned: make([]bool, n),
		noise:        r,
		instrByCore:  make([]float64, n),
		corePowerW:   make([]float64, n),
		temps:        make([]float64, n),
		instrDelta:   make([]float64, n),
		indepSources: true,
		nLevels:      nl,
		freqsHz:      cfg.VF.FreqsHz(),
		voltsV:       cfg.VF.VoltagesV(),
		lut:          power.NewLUT(cfg.Power, cfg.VF.VoltagesV()),
		freqMultC:    make([]float64, n),
		dynMultC:     make([]float64, n),
		leakMultC:    make([]float64, n),
		workSrcs:     make([]workload.WorkSource, n),
		procSrcs:     make([]*workload.Process, n),
		memoVer:      make([]uint32, n*nl),
		memoIPS:      make([]float64, n*nl),
		memoDyn:      make([]float64, n*nl),
		memoMemB:     make([]float64, n*nl),
		phCache:      make([]workload.Phase, n),
		phVer:        make([]uint32, n),
	}
	if !cfg.ThermalEnabled {
		c.fixedLeak = c.lut.FixedTempLeakageW(cfg.Thermal.AmbientK)
	}
	iw, ih := cfg.islandDims()
	c.islandsTrivial = iw == 1 && ih == 1
	for i, s := range sources {
		// WorkSource lanes (barrier apps, job systems) share application
		// state across cores, so advancing them concurrently would race
		// and reorder barrier releases; such chips always step
		// sequentially. This assertion is the only shared-state signal, so
		// any wrapper delegating to a WorkSource must itself implement
		// WorkSource (see the invariant on workload.Source) or it would
		// wrongly pass this check and race under parallel stepping. The
		// result is cached per core: the kernel consults it every epoch
		// for work-coupled advancement and has no business re-asserting an
		// interface there.
		if ws, shared := s.(workload.WorkSource); shared {
			c.indepSources = false
			c.workSrcs[i] = ws
		} else if p, ok := s.(*workload.Process); ok {
			c.procSrcs[i] = p
		}
	}
	c.hetero = len(cfg.CoreTypes) > 0
	if c.hetero {
		c.ipcMult = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		leakMult, dynMult, freqMult := 1.0, 1.0, 1.0
		if v := cfg.Variation; v != nil {
			leakMult, dynMult, freqMult = v.LeakMult[i], v.DynMult[i], v.FreqMult[i]
		}
		if c.hetero {
			ct := cfg.CoreTypes[cfg.TypeOf[i]]
			c.ipcMult[i] = ct.IPCMult
			dynMult *= ct.CeffMult
			leakMult *= ct.LeakMult
		}
		c.freqMultC[i] = freqMult
		c.dynMultC[i] = dynMult
		c.leakMultC[i] = leakMult
	}
	// uniform means every per-core multiplier is exactly 1.0, so the
	// kernel may skip the multiplies outright: x*1.0 is the IEEE-754
	// identity, bit for bit, and skipping the loads drops three slab
	// streams from the hot loop. Detected by scanning rather than from
	// config flags so any future multiplier source stays covered.
	c.uniform = true
	for i := 0; i < n; i++ {
		if c.freqMultC[i] != 1 || c.dynMultC[i] != 1 || c.leakMultC[i] != 1 {
			c.uniform = false
			break
		}
	}
	for i := range c.levels {
		c.levels[i] = cfg.InitialLevel
		c.requested[i] = cfg.InitialLevel
	}
	if cfg.ThermalEnabled {
		var err error
		c.therm, err = thermal.New(cfg.Width, cfg.Height, cfg.Thermal)
		if err != nil {
			return nil, err
		}
	}
	for i := range c.temps {
		c.temps[i] = cfg.Thermal.AmbientK
	}
	return c, nil
}

// NumCores returns the core count.
func (c *Chip) NumCores() int { return len(c.levels) }

// Config returns the chip's configuration.
func (c *Chip) Config() Config { return c.cfg }

// Level returns core i's current effective VF level (after island
// resolution).
func (c *Chip) Level(core int) int { return c.levels[core] }

// SetLevel requests the given VF level for core i. The request takes
// effect at the next epoch boundary; when cores share a voltage-frequency
// island, the island runs at the highest level requested by any member.
// Out-of-range levels panic: emitting them is a controller bug that must
// not be silently absorbed. Requests for dead cores are ignored, and an
// installed ActuationFilter may rewrite the request (fault injection).
//
// The common case, an in-range level on a chip with no actuation filter
// and no dead core, is the one store below, small enough to inline into
// the run loop; everything else goes to setLevelSlow. Keep this body under
// the inliner's budget: `make inline-check` fails when sim's call stops
// inlining.
func (c *Chip) SetLevel(core, level int) {
	if uint(level) < uint(c.nLevels) && !c.hooked {
		c.requested[core] = level
		return
	}
	c.setLevelSlow(core, level)
}

// setLevelSlow is SetLevel's general path: the range check, the dead-core
// ignore and the actuation filter with its clamp.
//
//go:noinline
func (c *Chip) setLevelSlow(core, level int) {
	if level < 0 || level >= c.cfg.VF.Levels() {
		panic(fmt.Sprintf("manycore: level %d out of range [0,%d)", level, c.cfg.VF.Levels()))
	}
	if c.dead != nil && c.dead[core] {
		return
	}
	if c.actFilter != nil {
		level = c.actFilter.FilterLevel(core, level, c.levels[core])
		if level < 0 {
			level = 0
		} else if max := c.cfg.VF.Levels() - 1; level > max {
			level = max
		}
	}
	c.requested[core] = level
}

// SetTelemetryFilter installs (or, with nil, removes) the sensor-read
// fault hook applied to every Step's telemetry.
func (c *Chip) SetTelemetryFilter(f TelemetryFilter) { c.telFilter = f }

// SetActuationFilter installs (or, with nil, removes) the SetLevel fault
// hook.
func (c *Chip) SetActuationFilter(f ActuationFilter) {
	c.actFilter = f
	c.hooked = f != nil || c.dead != nil
}

// FailCore powers core i off permanently: it retires nothing, burns
// nothing, reports all-zero telemetry with the Dead flag set, and ignores
// further level requests. Failing an already-dead core is a no-op.
func (c *Chip) FailCore(core int) {
	if c.dead == nil {
		c.dead = make([]bool, c.NumCores())
	}
	c.hooked = true
	c.dead[core] = true
	c.requested[core] = 0
	c.levels[core] = 0
	c.transitioned[core] = false
}

// CoreDead reports whether core i has been powered off via FailCore.
func (c *Chip) CoreDead(core int) bool { return c.dead != nil && c.dead[core] }

// resolveIslands applies the pending requests: each island takes the max
// requested level of its cores; a core whose effective level changes is
// charged a transition stall for the coming epoch. Per-core DVFS (1×1
// islands, the common case) latches requests directly: the max over a
// single core is the request itself, since levels are non-negative.
//
//odrl:hotpath
func (c *Chip) resolveIslands() {
	if c.islandsTrivial {
		for i, r := range c.requested {
			if c.levels[i] != r {
				c.levels[i] = r
				c.transitioned[i] = true
			}
		}
		return
	}
	iw, ih := c.cfg.islandDims()
	for y0 := 0; y0 < c.cfg.Height; y0 += ih {
		for x0 := 0; x0 < c.cfg.Width; x0 += iw {
			max := 0
			for dy := 0; dy < ih; dy++ {
				for dx := 0; dx < iw; dx++ {
					if r := c.requested[(y0+dy)*c.cfg.Width+x0+dx]; r > max {
						max = r
					}
				}
			}
			for dy := 0; dy < ih; dy++ {
				for dx := 0; dx < iw; dx++ {
					i := (y0+dy)*c.cfg.Width + x0 + dx
					if c.levels[i] != max {
						c.levels[i] = max
						c.transitioned[i] = true
					}
				}
			}
		}
	}
}

// TimeS returns cumulative simulated seconds.
func (c *Chip) TimeS() float64 { return c.timeS }

// EnergyJ returns cumulative true chip energy in joules.
func (c *Chip) EnergyJ() float64 { return c.energyJ }

// Instructions returns cumulative instructions retired across all cores.
func (c *Chip) Instructions() float64 { return c.instrTotal }

// CoreInstructions returns cumulative instructions retired by one core.
func (c *Chip) CoreInstructions(core int) float64 { return c.instrByCore[core] }

// MaxTempK returns the hottest core temperature (ambient when the thermal
// loop is disabled).
func (c *Chip) MaxTempK() float64 {
	if c.therm == nil {
		return c.cfg.Thermal.AmbientK
	}
	return c.therm.MaxTemp()
}

// stepWorkers returns the goroutine count for this chip's per-core epoch
// loop: 1 (sequential) unless the chip is large enough to amortise
// dispatch and every source is independent.
//
//odrl:hotpath
func (c *Chip) stepWorkers() int {
	if !c.indepSources || c.NumCores() < parallelMinCores || c.cfg.Workers == 1 {
		return 1
	}
	return par.Workers(c.cfg.Workers, c.NumCores())
}

// scaledPhase returns core i's current phase with scale and core-type CPI
// adjustment applied, through a per-core cache refreshed only when core
// i's phase key (see the phase memo) moves. Phase is a pure function of
// PhaseIndex (the Source contract), so the cached value is the identical
// bits a fresh call would produce.
//
//odrl:hotpath
func (c *Chip) scaledPhase(i int, key uint32) workload.Phase {
	if c.phVer[i] != key {
		c.phCache[i] = c.freshPhase(i)
		c.phVer[i] = key
	}
	return c.phCache[i]
}

// freshPhase samples core i's phase from its source and applies the
// core-type CPI adjustment.
//
//odrl:hotpath
func (c *Chip) freshPhase(i int) workload.Phase {
	ph := c.sources[i].Phase()
	if c.hetero {
		ph.BaseCPI /= c.ipcMult[i]
	}
	return ph
}

// phasePhysics derives the three phase×level quantities by running the
// exact instruction sequence the reference kernel runs per epoch: IPSAt,
// DynamicW×dynMult, MemBoundednessAt. Keeping the operation order
// identical is what makes a later memo hit bit-equal to recomputing —
// reassociating any of these products would silently fork every RL
// trajectory from the goldens.
//
//odrl:hotpath
func (c *Chip) phasePhysics(ph workload.Phase, i, lvl int) (ips, pDyn, memB float64) {
	if c.uniform {
		freq := c.freqsHz[lvl]
		ips = ph.IPSAt(freq)
		pDyn = c.cfg.Power.DynamicW(c.voltsV[lvl], freq, ph.Activity)
		memB = ph.MemBoundednessAt(freq)
		return ips, pDyn, memB
	}
	freq := c.freqsHz[lvl] * c.freqMultC[i]
	ips = ph.IPSAt(freq)
	pDyn = c.cfg.Power.DynamicW(c.voltsV[lvl], freq, ph.Activity) * c.dynMultC[i]
	memB = ph.MemBoundednessAt(freq)
	return ips, pDyn, memB
}

// stepRange advances cores [lo, hi) by dt, writing only index-owned
// state: telemetry slots, power/instruction scratch entries, each core's
// phase-memo slots and each core's own workload source. (Shared-state
// lanes also write their application's state, which is why chips with
// them step sequentially.) Every core's physics goes through the phase
// memo, keyed on its source's PhaseIndex as described on Chip.memoVer, so
// a core costs O(1) per epoch whatever its source. Sensor variates were
// pre-drawn into noiseBuf (3 per core in core order) by StepInto, so the
// kernel never touches the RNG; dead cores' variates stay unused but
// allocated, which keeps the stream aligned with fault-free runs. The
// slab locals exist to hoist field loads and nil checks out of the
// per-core loop.
//
// With fuse set (sequential path only), the instruction and chip-power
// reductions run inside the loop and the true chip power is returned:
// the accumulation order — instrTotal ascending by core, UncoreW then
// cores ascending for power — is exactly the order the separate
// post-passes use, so fusing changes no rounding. The sharded path must
// not fuse (per-chunk partial sums would reassociate the adds) and
// passes fuse=false, ignoring the return value.
//
//odrl:hotpath
func (c *Chip) stepRange(lo, hi int, dt float64, tel *Telemetry, fuse bool) float64 {
	var (
		levels    = c.levels
		temps     = c.temps
		trans     = c.transitioned
		corePW    = c.corePowerW
		delta     = c.instrDelta
		cores     = tel.Cores
		freqs     = c.freqsHz
		volts     = c.voltsV
		fMult     = c.freqMultC
		leakMult  = c.leakMultC
		fixedLeak = c.fixedLeak
		memoVer   = c.memoVer
		memoIPS   = c.memoIPS
		memoDyn   = c.memoDyn
		memoMemB  = c.memoMemB
		workSrcs  = c.workSrcs
		procSrcs  = c.procSrcs
		sources   = c.sources
		dead      = c.dead
		nl        = c.nLevels
		penalty   = c.cfg.TransitionPenaltyS
		sn        = c.cfg.SensorNoise
		noiseBuf  = c.noiseBuf
		lut       = c.lut
	)
	noiseOn := sn != 0
	uniform := c.uniform
	instrByCore := c.instrByCore
	instrTotal, truePower := 0.0, 0.0
	if fuse {
		instrTotal = c.instrTotal
		truePower = c.cfg.Power.UncoreW
	}
	if lo < hi {
		// Anchor the per-core slabs' bounds checks once per range:
		// proving hi-1 indexes in range lets the compiler drop the
		// per-iteration checks inside the loop below.
		last := hi - 1
		_ = levels[last]
		_ = temps[last]
		_ = trans[last]
		_ = corePW[last]
		_ = delta[last]
		_ = cores[last]
		_ = fMult[last]
		_ = leakMult[last]
		_ = workSrcs[last]
		_ = procSrcs[last]
		_ = sources[last]
		_ = instrByCore[last]
	}
	if fixedLeak == nil {
		// Leakage pre-pass: each core's temperature factor goes into the
		// power slot its own iteration overwrites below, so the shard's
		// math.Exp calls run back to back and overlap instead of each
		// heading its core's dependency chain.
		lut.TempFactors(corePW[lo:hi], temps[lo:hi])
	}
	for i := lo; i < hi; i++ {
		if dead != nil && dead[i] {
			corePW[i] = 0
			delta[i] = 0
			cores[i] = CoreTelemetry{Dead: true}
			if fuse {
				instrByCore[i] += 0
				instrTotal += 0
				truePower += 0
			}
			continue
		}

		lvl := levels[i]
		temp := temps[i]

		stall := 0.0
		if trans[i] {
			stall = penalty
			if stall > dt {
				stall = dt
			}
			trans[i] = false
		}
		active := dt - stall

		// Phase memo key: PhaseIndex()+1. A negative index opts out:
		// key 0 always takes the fresh path.
		p := procSrcs[i]
		var k int
		if p != nil {
			k = p.PhaseIndex()
		} else {
			k = sources[i].PhaseIndex()
		}
		var key uint32
		if k >= 0 {
			key = uint32(k) + 1
		}
		var ips, pDyn, memB float64
		if m := i*nl + lvl; key == 0 {
			ips, pDyn, memB = c.phasePhysics(c.freshPhase(i), i, lvl)
		} else if memoVer[m] == key {
			ips, pDyn, memB = memoIPS[m], memoDyn[m], memoMemB[m]
		} else {
			ips, pDyn, memB = c.phasePhysics(c.scaledPhase(i, key), i, lvl)
			memoIPS[m], memoDyn[m], memoMemB[m] = ips, pDyn, memB
			memoVer[m] = key
		}
		var freq float64
		if uniform {
			freq = freqs[lvl]
		} else {
			freq = freqs[lvl] * fMult[i]
		}
		instr := ips * active

		// Power: full during the active window, leakage-only during the
		// stall (clocks gated while the PLL relocks). Leakage is the
		// per-level Pow prefix times the temperature factor the pre-pass
		// left in corePW[i] — or a single indexed load when the thermal
		// loop is off and temperature is pinned at ambient.
		var pLeak float64
		if fixedLeak != nil {
			pLeak = fixedLeak[lvl]
		} else {
			pLeak = lut.LeakageWFrom(lvl, corePW[i])
		}
		if !uniform {
			pLeak *= leakMult[i]
		}
		pActive := pDyn + pLeak
		avgP := (pActive*active + pLeak*stall) / dt
		corePW[i] = avgP

		// Work-coupled sources (barrier apps) progress by retired
		// instructions, so a throttled core genuinely takes longer to
		// reach its barrier.
		var changed bool
		if ws := workSrcs[i]; ws != nil {
			changed = ws.AdvanceWork(dt, instr) > 0
		} else if p != nil {
			changed = p.Advance(dt) > 0
		} else {
			changed = sources[i].Advance(dt) > 0
		}

		delta[i] = instr
		if fuse {
			instrByCore[i] += instr
			instrTotal += instr
			truePower += avgP
		}

		obsIPS, obsP, obsMemB := instr/dt, avgP, memB
		if noiseOn {
			z := noiseBuf[3*i : 3*i+3 : 3*i+3]
			if obsIPS = obsIPS * (1 + sn*z[0]); obsIPS < 0 {
				obsIPS = 0
			}
			if obsP = obsP * (1 + sn*z[1]); obsP < 0 {
				obsP = 0
			}
			if obsMemB = obsMemB * (1 + sn*z[2]); obsMemB < 0 {
				obsMemB = 0
			}
		}

		// Field stores into the slot rather than a composite literal,
		// which the compiler builds in a stack temporary and copies.
		// Every field is written, Dead included, so a reused slot is
		// overwritten in full.
		ct := &cores[i]
		ct.Level = lvl
		ct.FreqHz = freq
		ct.VoltageV = volts[lvl]
		ct.IPS = obsIPS
		ct.PowerW = obsP
		ct.TempK = temp
		ct.MemBoundedness = clamp01(obsMemB)
		ct.Instructions = instr
		ct.PhaseChanged = changed
		ct.Dead = false
	}
	if fuse {
		c.instrTotal = instrTotal
	}
	return truePower
}

// Step advances the chip by dt seconds and returns the epoch telemetry.
// Phase parameters are sampled at the start of the epoch, matching the
// granularity at which real performance counters are read.
//
// On large chips with independent sources the per-core loop is sharded
// across Config.Workers goroutines. The result is bit-identical to
// sequential stepping: sensor-noise variates are pre-drawn from the chip
// stream in core order before dispatch, every worker writes only
// index-addressed slots, and the instruction totals are reduced in index
// order afterwards — the same floating-point operations in the same order.
//
// Step allocates fresh telemetry each call, so the result stays valid
// indefinitely; steady-state loops should use StepInto to amortise the
// allocation away.
func (c *Chip) Step(dt float64) Telemetry {
	var tel Telemetry
	c.StepInto(dt, &tel)
	return tel
}

// StepInto advances the chip exactly like Step but writes the telemetry
// into *tel, reusing tel.Cores when its capacity allows. Every core slot
// and chip-level field is overwritten in full, so passing the same
// Telemetry each epoch steps the chip without allocating — at 64 cores the
// fresh slice is ~5 KB/epoch, which otherwise dominates the harness's GC
// load. The caller must not retain tel.Cores across calls.
//
// This is the struct-of-arrays kernel: all sensor-noise variates for the
// epoch are pre-drawn into one buffer (3 per core in core order, the
// identical stream the inline draws consumed), per-core physics reads
// level-indexed lookup tables and the phase memo instead of re-deriving
// transcendentals, and parallel dispatch goes to the chip's persistent
// shard workers. Results are bit-identical to the pre-optimization kernel
// kept in reference_test.go for every worker count — the oracle tests
// compare the two field by field.
//
//odrl:hotpath
func (c *Chip) StepInto(dt float64, tel *Telemetry) {
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

	noiseOn := c.cfg.SensorNoise != 0
	if noiseOn {
		if c.noiseBuf == nil {
			c.noiseBuf = make([]float64, 3*n+1)
		}
		c.noise.NormFill(c.noiseBuf)
	}

	var truePower float64
	if workers := c.stepWorkers(); workers > 1 {
		if c.pool == nil {
			c.pool = par.NewPool(workers)
			// One closure for the life of the chip: per-epoch inputs
			// travel through stepDt/stepTel so the hot loop allocates
			// nothing, not even a closure header.
			c.stepFn = func(lo, hi int) {
				c.stepRange(lo, hi, c.stepDt, c.stepTel, false)
			}
		}
		c.stepDt, c.stepTel = dt, tel
		c.pool.ForEachChunk(n, c.stepFn)
		c.stepTel = nil
		// Index-order reductions: per-core instruction totals and the
		// chip power sum accumulate in ascending core order, so the
		// floating-point rounding sequence is independent of the worker
		// count. ChipW's summation order (uncore floor first, then cores
		// ascending) is replicated inline to fuse the two passes. The
		// sequential path below fuses this same reduction, in the same
		// order, into the kernel loop itself.
		instrTotal := c.instrTotal
		truePower = c.cfg.Power.UncoreW
		for i := 0; i < n; i++ {
			d := c.instrDelta[i]
			c.instrByCore[i] += d
			instrTotal += d
			truePower += c.corePowerW[i]
		}
		c.instrTotal = instrTotal
	} else {
		truePower = c.stepRange(0, n, dt, tel, true)
	}

	c.energyJ += truePower * dt
	c.timeS += dt

	if c.therm != nil {
		c.therm.Step(c.corePowerW, dt)
		// Adopt the model's slab as the chip's temperature slab: same
		// values the old per-epoch copy produced, without the copy. The
		// view is re-fetched every epoch because Euler sub-steps swap the
		// model's working buffers.
		c.temps = c.therm.TempsView()
	}

	tel.TimeS = c.timeS
	tel.TruePowerW = truePower
	tel.ChipPowerW = truePower
	if noiseOn {
		// The chip power meter reads through the batch's last variate.
		if tel.ChipPowerW *= 1 + c.cfg.SensorNoise*c.noiseBuf[3*n]; tel.ChipPowerW < 0 {
			tel.ChipPowerW = 0
		}
	}
	// The sensor-read fault hook runs last, on the sequential path, so the
	// faults it injects are independent of the worker count above.
	if c.telFilter != nil {
		c.telFilter.FilterTelemetry(tel)
	}
}

// Close releases the chip's persistent shard workers. It is safe to call
// on any chip (including ones that never stepped in parallel) and more
// than once; a closed chip keeps working, stepping sequentially. Chips
// that are simply dropped are cleaned up by a pool finalizer, but
// long-lived processes that churn through many chips should Close them
// promptly.
func (c *Chip) Close() {
	if c.pool != nil {
		c.pool.Close()
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
