package workload

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// PhaseSpec is a phase plus its duration statistics inside a Spec.
type PhaseSpec struct {
	Phase
	// MeanDurS is the mean phase duration in seconds.
	MeanDurS float64
	// DurJitter in [0,1) spreads durations uniformly over
	// [Mean·(1−J), Mean·(1+J)].
	DurJitter float64
}

// Spec is a complete workload description: a Markov chain over phases.
type Spec struct {
	Name string
	// Phases are the chain's states.
	Phases []PhaseSpec
	// Transitions[i][j] is the (unnormalised) probability of moving from
	// phase i to phase j when phase i ends. Self-transitions are allowed
	// and simply extend the phase with a fresh duration draw.
	Transitions [][]float64
	// Start is the index of the initial phase.
	Start int
}

// Validate reports the first structural problem in the spec.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("workload: spec has empty name")
	}
	n := len(s.Phases)
	if n == 0 {
		return fmt.Errorf("workload %q: no phases", s.Name)
	}
	for i, ps := range s.Phases {
		if err := ps.Phase.Validate(); err != nil {
			return fmt.Errorf("workload %q phase %d: %w", s.Name, i, err)
		}
		if ps.MeanDurS <= 0 {
			return fmt.Errorf("workload %q phase %d: MeanDurS must be positive, got %g", s.Name, i, ps.MeanDurS)
		}
		if ps.DurJitter < 0 || ps.DurJitter >= 1 {
			return fmt.Errorf("workload %q phase %d: DurJitter must be in [0,1), got %g", s.Name, i, ps.DurJitter)
		}
	}
	if len(s.Transitions) != n {
		return fmt.Errorf("workload %q: transition matrix has %d rows, want %d", s.Name, len(s.Transitions), n)
	}
	for i, row := range s.Transitions {
		if len(row) != n {
			return fmt.Errorf("workload %q: transition row %d has %d entries, want %d", s.Name, i, len(row), n)
		}
		sum := 0.0
		for j, w := range row {
			if w < 0 || math.IsNaN(w) {
				return fmt.Errorf("workload %q: transition [%d][%d] = %g invalid", s.Name, i, j, w)
			}
			sum += w
		}
		if sum <= 0 {
			return fmt.Errorf("workload %q: transition row %d sums to zero", s.Name, i)
		}
	}
	if s.Start < 0 || s.Start >= n {
		return fmt.Errorf("workload %q: start phase %d out of range", s.Name, s.Start)
	}
	return nil
}

// Source is anything that produces a phase stream for one core: a live
// Markov process, a barrier-app lane or a job-queue lane.
//
// Invariant for memoisation: PhaseIndex is an index over a fixed set of
// phases, and Phase is a pure function of that index for the source's
// lifetime. The epoch kernel memoises per-phase derived quantities (IPS,
// dynamic power, memory-boundedness per VF level) keyed on PhaseIndex
// alone, with no change signal from Advance: a WorkSource lane's phase
// may flip when *another* lane's AdvanceWork releases a barrier or
// dispatches a job. A source whose Phase drifted under an unchanged index
// would feed stale physics to the simulator; a source that cannot keep
// this invariant must return a negative PhaseIndex, which the kernel
// samples fresh every epoch.
//
// Invariant for wrappers: manycore detects whether a chip's sources share
// application state (and so must step sequentially) by asserting each
// Source to WorkSource at construction time. A wrapper that delegates to
// a WorkSource (a scaler, jitterer, tracer, ...) MUST itself implement
// WorkSource and forward AdvanceWork; otherwise the shared state it hides
// would pass the independence check and race under parallel stepping.
type Source interface {
	// Phase returns the currently active phase.
	Phase() Phase
	// Advance moves time forward by dt seconds and returns how many phase
	// boundaries were crossed.
	Advance(dt float64) int
	// PhaseIndex returns the index of the active phase, or a negative
	// value if Phase is not a pure function of an index (see above).
	PhaseIndex() int
}

// Process is a live Markov-chain workload source.
type Process struct {
	spec       Spec
	r          *rng.RNG
	current    int
	remainingS float64
	// scaled[i] is spec.Phases[i].Phase.Scale(scale), precomputed once at
	// construction: the spec and scale are immutable for the process's
	// lifetime, so Phase() returns the table entry without per-call
	// multiplies.
	scaled []Phase
}

// NewProcess creates a process over spec using random stream r.
func NewProcess(spec Spec, r *rng.RNG) (*Process, error) {
	return NewScaledProcess(spec, r, 1.0)
}

// NewScaledProcess is NewProcess with a per-core scale factor applied to
// every phase (see Phase.Scale); it models workload imbalance across cores.
func NewScaledProcess(spec Spec, r *rng.RNG, scale float64) (*Process, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if scale <= 0 {
		return nil, fmt.Errorf("workload: non-positive scale %g", scale)
	}
	p := &Process{spec: spec, r: r, current: spec.Start}
	p.scaled = make([]Phase, len(spec.Phases))
	for i := range spec.Phases {
		p.scaled[i] = spec.Phases[i].Phase.Scale(scale)
	}
	p.remainingS = p.drawDuration(p.current)
	return p, nil
}

func (p *Process) drawDuration(idx int) float64 {
	ps := p.spec.Phases[idx]
	if ps.DurJitter == 0 {
		return ps.MeanDurS
	}
	u := 2*p.r.Float64() - 1 // uniform in [-1, 1)
	return ps.MeanDurS * (1 + ps.DurJitter*u)
}

// Phase returns the active phase with the process's scale applied.
func (p *Process) Phase() Phase {
	return p.scaled[p.current]
}

// PhaseIndex returns the active phase's index in the spec.
func (p *Process) PhaseIndex() int { return p.current }

// Advance moves the process forward dt seconds, sampling phase transitions
// as phase budgets expire. It returns the number of transitions taken.
func (p *Process) Advance(dt float64) int {
	if dt < 0 {
		panic(fmt.Sprintf("workload: negative dt %g", dt))
	}
	changes := 0
	for dt >= p.remainingS {
		dt -= p.remainingS
		p.current = p.r.Choice(p.spec.Transitions[p.current])
		p.remainingS = p.drawDuration(p.current)
		changes++
	}
	p.remainingS -= dt
	return changes
}

// Characterization is the time-averaged behaviour of a spec at a reference
// frequency, used for the T2 workload table.
type Characterization struct {
	Name           string
	MeanCPI        float64
	MeanMPKI       float64
	MemBoundedness float64
	MeanActivity   float64
	PhaseRatePerS  float64 // phase changes per second
}

// Characterize runs a process for durS seconds of simulated time at fHz and
// reports its averages, weighting by time.
func Characterize(spec Spec, seed uint64, durS, fHz float64) (Characterization, error) {
	p, err := NewProcess(spec, rng.New(seed))
	if err != nil {
		return Characterization{}, err
	}
	const step = 1e-3
	var c Characterization
	c.Name = spec.Name
	steps := int(durS / step)
	changes := 0
	for i := 0; i < steps; i++ {
		ph := p.Phase()
		c.MeanCPI += ph.CPIAt(fHz)
		c.MeanMPKI += ph.MPKI
		c.MemBoundedness += ph.MemBoundednessAt(fHz)
		c.MeanActivity += ph.Activity
		changes += p.Advance(step)
	}
	n := float64(steps)
	c.MeanCPI /= n
	c.MeanMPKI /= n
	c.MemBoundedness /= n
	c.MeanActivity /= n
	c.PhaseRatePerS = float64(changes) / durS
	return c, nil
}
