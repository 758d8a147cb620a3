// Package rl provides the tabular reinforcement-learning machinery the
// OD-RL controller builds on: Q-tables, Q-learning and SARSA updates,
// ε-greedy and softmax action selection with decay schedules, and helpers
// for discretising continuous telemetry into table states.
//
// Everything is deliberately table-based. The paper's per-core agents must
// run every millisecond on hundreds of cores; a handful of multiplies per
// decision is the entire point of the approach, and the F5 scalability
// experiment measures exactly that.
package rl

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Algorithm selects the temporal-difference target.
type Algorithm int

// Supported TD algorithms.
const (
	// QLearning bootstraps from the greedy next action (off-policy).
	QLearning Algorithm = iota
	// SARSA bootstraps from the action actually taken (on-policy).
	SARSA
)

// String returns the algorithm name.
func (a Algorithm) String() string {
	switch a {
	case QLearning:
		return "q-learning"
	case SARSA:
		return "sarsa"
	case DoubleQLearning:
		return "double-q-learning"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// PolicyKind selects the exploration policy.
type PolicyKind int

// Supported exploration policies.
const (
	// EpsilonGreedy explores uniformly with probability ε.
	EpsilonGreedy PolicyKind = iota
	// Softmax samples actions with probability ∝ exp(Q/τ).
	Softmax
)

// Config parameterises an Agent.
type Config struct {
	States  int
	Actions int
	// Alpha is the learning rate in (0, 1].
	Alpha float64
	// Gamma is the discount factor in [0, 1).
	Gamma float64
	// Algorithm chooses the TD target.
	Algorithm Algorithm
	// Policy chooses the exploration mechanism.
	Policy PolicyKind
	// EpsilonStart/EpsilonEnd/EpsilonDecay give the exploration schedule
	// ε(t) = end + (start − end)·decay^t for EpsilonGreedy, and the same
	// schedule for temperature when Policy is Softmax.
	EpsilonStart float64
	EpsilonEnd   float64
	EpsilonDecay float64
	// InitialQ optimistically initialises the table to encourage early
	// exploration of untried actions.
	InitialQ float64
	// TraceLambda, when positive, enables Watkins Q(λ) eligibility traces
	// with the given decay (only with the QLearning algorithm).
	TraceLambda float64
	// UCBc is the UCB1 exploration constant; only used when Policy is UCB,
	// where it must be positive.
	UCBc float64
}

// Validate reports the first invalid hyper-parameter.
func (c Config) Validate() error {
	switch {
	case c.States <= 0:
		return fmt.Errorf("rl: States must be positive, got %d", c.States)
	case c.Actions <= 0:
		return fmt.Errorf("rl: Actions must be positive, got %d", c.Actions)
	case c.Alpha <= 0 || c.Alpha > 1:
		return fmt.Errorf("rl: Alpha must be in (0,1], got %g", c.Alpha)
	case c.Gamma < 0 || c.Gamma >= 1:
		return fmt.Errorf("rl: Gamma must be in [0,1), got %g", c.Gamma)
	case c.EpsilonStart < 0 || c.EpsilonStart > 1:
		return fmt.Errorf("rl: EpsilonStart must be in [0,1], got %g", c.EpsilonStart)
	case c.EpsilonEnd < 0 || c.EpsilonEnd > c.EpsilonStart:
		return fmt.Errorf("rl: EpsilonEnd must be in [0, EpsilonStart], got %g", c.EpsilonEnd)
	case c.EpsilonDecay <= 0 || c.EpsilonDecay > 1:
		return fmt.Errorf("rl: EpsilonDecay must be in (0,1], got %g", c.EpsilonDecay)
	case c.Algorithm != QLearning && c.Algorithm != SARSA && c.Algorithm != DoubleQLearning:
		return fmt.Errorf("rl: unknown algorithm %d", c.Algorithm)
	case c.Policy != EpsilonGreedy && c.Policy != Softmax && c.Policy != UCB:
		return fmt.Errorf("rl: unknown policy %d", c.Policy)
	case c.Policy == UCB && c.UCBc <= 0:
		return fmt.Errorf("rl: UCB policy needs positive UCBc, got %g", c.UCBc)
	}
	return c.validateExtensions()
}

// Table is a dense state×action value table.
type Table struct {
	states, actions int
	q               []float64
	// dirty marks mutations made outside the agent's own update paths
	// (Set, CopyFrom, UnmarshalJSON); the owning agent's greedy cache
	// rebuilds before its next read.
	dirty bool
}

// NewTable allocates a table initialised to initialQ.
func NewTable(states, actions int, initialQ float64) *Table {
	t := &Table{states: states, actions: actions, q: make([]float64, states*actions)}
	if initialQ != 0 {
		for i := range t.q {
			t.q[i] = initialQ
		}
	}
	return t
}

// Get returns Q(s, a).
func (t *Table) Get(s, a int) float64 { return t.q[s*t.actions+a] }

// Set assigns Q(s, a).
func (t *Table) Set(s, a int, v float64) {
	t.q[s*t.actions+a] = v
	t.dirty = true
}

// setRaw assigns Q(s, a) from the agent's own update paths, which maintain
// the greedy cache incrementally and so skip the dirty mark.
func (t *Table) setRaw(s, a int, v float64) { t.q[s*t.actions+a] = v }

// Best returns the greedy action and its value for state s; ties break
// toward the lowest action index so results are deterministic.
func (t *Table) Best(s int) (action int, value float64) {
	base := s * t.actions
	action, value = 0, t.q[base]
	for a := 1; a < t.actions; a++ {
		if v := t.q[base+a]; v > value {
			action, value = a, v
		}
	}
	return action, value
}

// States and Actions return the table dimensions.
func (t *Table) States() int  { return t.states }
func (t *Table) Actions() int { return t.actions }

// Agent is one tabular TD learner. Use Begin once, then alternate
// environment steps with Step.
type Agent struct {
	cfg    Config
	table  *Table
	table2 *Table    // second estimator, double Q-learning only
	trace  []float64 // eligibility traces, Q(λ) only
	ucb    *ucbState // visit counts, UCB policy only
	r      *rng.RNG

	steps     int
	lastState int
	lastAct   int
	started   bool

	// scratch for softmax
	probs []float64

	// shared exploration-schedule memo; nil means compute per call.
	epsCache *EpsilonCache

	// introspection (see introspect.go); off by default and free when off.
	introspect   bool
	probe        Probe
	visited      []bool
	visitedCount int

	// Greedy-action cache under the selection values, maintained
	// incrementally by noteUpdate; active only with introspection on and
	// eligibility traces off (traces rewrite too many entries per step).
	cacheOK   bool
	greedyAct []int32
	greedyVal []float64
	flips     int // greedy flips since TakeFlips
	lastUpd   int // most recently updated state, -1 before the first probed step
}

// NewAgent creates an agent. The RNG drives exploration.
func NewAgent(cfg Config, r *rng.RNG) (*Agent, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if r == nil {
		return nil, fmt.Errorf("rl: nil rng")
	}
	a := &Agent{
		cfg:     cfg,
		table:   NewTable(cfg.States, cfg.Actions, cfg.InitialQ),
		r:       r,
		probs:   make([]float64, cfg.Actions),
		lastUpd: -1,
	}
	if cfg.Algorithm == DoubleQLearning {
		a.table2 = NewTable(cfg.States, cfg.Actions, cfg.InitialQ)
	}
	if cfg.tracesEnabled() {
		a.trace = make([]float64, cfg.States*cfg.Actions)
	}
	if cfg.Policy == UCB {
		a.ucb = &ucbState{
			visits:      make([]float64, cfg.States*cfg.Actions),
			stateVisits: make([]float64, cfg.States),
		}
	}
	return a, nil
}

// Table exposes the agent's Q-table (for inspection and for the OD-RL
// global layer, which reads Q-values as marginal-utility estimates).
func (a *Agent) Table() *Table { return a.table }

// epsilonSlots is how many distinct step counts one EpsilonCache serves.
// Lockstep fleets need one. Agents held behind the OD-RL telemetry
// watchdog lag, and a chip-wide blackout holds every live agent for the
// same epochs, so only a few counts coexist: at most 5 in any epoch of 40
// seeds of the 256-core barrier run under fault.Scaled(0.5). Counts
// beyond the slots compute inline.
const epsilonSlots = 8

// EpsilonCache memoises a few points of the exploration schedule
// ε(t) = end + (start−end)·decay^t for a fleet of agents that mostly
// march in lockstep (the OD-RL local phase: every live agent takes
// exactly one step per control epoch unless the telemetry watchdog holds
// it). The owner warms one slot per distinct step count once per epoch;
// each agent's Epsilon then skips its math.Pow. Cached values are
// computed by the identical expression Epsilon uses, so a hit is
// bit-equal to the inline computation.
//
// Agents only read the cache (a hit requires an exact step match; a miss
// computes inline without writing), so a warmed cache is safe to share
// across the sharded decide loop, and an agent whose count found no free
// slot simply pays the Pow itself.
type EpsilonCache struct {
	start, end, decay float64
	n                 int // filled slots
	steps             [epsilonSlots]int
	vals              [epsilonSlots]float64
}

// NewEpsilonCache creates a cold cache for the given schedule.
func NewEpsilonCache(start, end, decay float64) *EpsilonCache {
	return &EpsilonCache{start: start, end: end, decay: decay}
}

// Reset empties every slot. Call from a single goroutine, before any
// concurrent readers.
func (ec *EpsilonCache) Reset() { ec.n = 0 }

// Add stores ε at the given step count in a free slot, unless the count is
// already served or every slot is taken, and reports whether the count is
// served afterwards. Same single-goroutine rule as Reset.
func (ec *EpsilonCache) Add(steps int) bool {
	if _, ok := ec.Lookup(steps); ok {
		return true
	}
	if ec.n == epsilonSlots {
		return false
	}
	ec.steps[ec.n] = steps
	ec.vals[ec.n] = ec.end + (ec.start-ec.end)*math.Pow(ec.decay, float64(steps))
	ec.n++
	return true
}

// Lookup returns the cached ε at the given step count, if a slot holds it.
func (ec *EpsilonCache) Lookup(steps int) (float64, bool) {
	for k := 0; k < ec.n; k++ {
		if ec.steps[k] == steps {
			return ec.vals[k], true
		}
	}
	return 0, false
}

// AttachEpsilonCache connects the agent to a shared schedule cache. It
// reports false (and leaves the agent detached) if the cache's schedule
// differs from the agent's — a mismatched cache would serve wrong values.
func (a *Agent) AttachEpsilonCache(ec *EpsilonCache) bool {
	c := a.cfg
	if ec == nil || ec.start != c.EpsilonStart || ec.end != c.EpsilonEnd || ec.decay != c.EpsilonDecay {
		return false
	}
	a.epsCache = ec
	return true
}

// Epsilon returns the current exploration parameter.
func (a *Agent) Epsilon() float64 {
	if ec := a.epsCache; ec != nil {
		if v, ok := ec.Lookup(a.steps); ok {
			return v
		}
	}
	c := a.cfg
	return c.EpsilonEnd + (c.EpsilonStart-c.EpsilonEnd)*math.Pow(c.EpsilonDecay, float64(a.steps))
}

// Steps returns the number of learning steps taken so far.
func (a *Agent) Steps() int { return a.steps }

// valueOf returns the action value used for selection: the mean of both
// estimators under double Q-learning, the single table otherwise.
func (a *Agent) valueOf(s, act int) float64 {
	if a.table2 != nil {
		return a.combinedQ(s, act)
	}
	return a.table.Get(s, act)
}

// bestAction is the greedy action under the selection value. With the
// introspection cache active it is a single lookup; the cache is maintained
// to agree with a full scan exactly, ties included.
func (a *Agent) bestAction(s int) int {
	if a.cacheOK {
		return int(a.greedyAct[s])
	}
	if a.table2 != nil {
		act, _ := a.bestCombined(s)
		return act
	}
	act, _ := a.table.Best(s)
	return act
}

// selectAction applies the configured exploration policy at state s.
func (a *Agent) selectAction(s int) int {
	eps := a.Epsilon()
	switch a.cfg.Policy {
	case UCB:
		return a.selectUCB(s)
	case Softmax:
		// Temperature follows the ε schedule, floored to stay numeric.
		tau := eps
		if tau < 1e-3 {
			tau = 1e-3
		}
		// Walk the state's row(s) directly: valueOf per cell redoes the
		// s*actions index math every call. The selection values are the
		// same expressions ((q1+q2)/2 under double-Q), so the sampled
		// distribution is bit-identical.
		base := s * a.cfg.Actions
		row := a.table.q[base : base+a.cfg.Actions]
		var row2 []float64
		if a.table2 != nil {
			row2 = a.table2.q[base : base+a.cfg.Actions]
		}
		value := func(i int) float64 {
			if row2 != nil {
				return (row[i] + row2[i]) / 2
			}
			return row[i]
		}
		maxQ := value(0)
		for i := 1; i < a.cfg.Actions; i++ {
			if v := value(i); v > maxQ {
				maxQ = v
			}
		}
		sum := 0.0
		for i := 0; i < a.cfg.Actions; i++ {
			p := math.Exp((value(i) - maxQ) / tau)
			a.probs[i] = p
			sum += p
		}
		x := a.r.Float64() * sum
		for i, p := range a.probs {
			x -= p
			if x < 0 {
				return i
			}
		}
		return a.cfg.Actions - 1
	default: // EpsilonGreedy
		if a.r.Float64() < eps {
			return a.r.Intn(a.cfg.Actions)
		}
		return a.bestAction(s)
	}
}

// Begin starts (or restarts) an episode at state s and returns the first
// action. No learning happens.
func (a *Agent) Begin(s int) int {
	a.checkState(s)
	a.guardCache()
	act := a.selectAction(s)
	a.lastState, a.lastAct = s, act
	a.started = true
	a.markVisited(s)
	return act
}

// Step records reward for the previous action, observes the next state,
// learns, and returns the next action. It panics if Begin was never called:
// that is a controller wiring bug.
func (a *Agent) Step(reward float64, next int) int {
	if !a.started {
		panic("rl: Step before Begin")
	}
	a.checkState(next)
	a.guardCache()
	nextAct := a.selectAction(next)

	// prevBest is captured before the update so the scan-based probe path
	// can report greedy churn; with the cache active, noteUpdate records
	// churn during the update instead.
	var prevBest int
	if a.introspect && !a.cacheOK {
		prevBest = a.bestAction(a.lastState)
	}

	switch {
	case a.cfg.Algorithm == DoubleQLearning:
		a.stepDouble(reward, next)
	case a.cfg.tracesEnabled():
		a.stepTraces(reward, next, nextAct)
	case a.cfg.Algorithm == SARSA:
		bootstrap := a.table.Get(next, nextAct)
		old := a.table.Get(a.lastState, a.lastAct)
		delta := reward + a.cfg.Gamma*bootstrap - old
		nv := old + a.cfg.Alpha*delta
		a.table.setRaw(a.lastState, a.lastAct, nv)
		a.noteTD(delta)
		a.noteUpdate(a.lastState, a.lastAct, nv)
	default: // QLearning
		var bootstrap float64
		if a.cacheOK {
			// The cached greedy value equals Best(next)'s value exactly.
			bootstrap = a.greedyVal[next]
		} else {
			_, bootstrap = a.table.Best(next)
		}
		old := a.table.Get(a.lastState, a.lastAct)
		delta := reward + a.cfg.Gamma*bootstrap - old
		nv := old + a.cfg.Alpha*delta
		a.table.setRaw(a.lastState, a.lastAct, nv)
		a.noteTD(delta)
		a.noteUpdate(a.lastState, a.lastAct, nv)
	}

	if a.introspect {
		a.finishProbe(prevBest, next, nextAct)
	}

	a.lastState, a.lastAct = next, nextAct
	a.steps++
	return nextAct
}

// Greedy returns the greedy action at state s without exploring or learning.
func (a *Agent) Greedy(s int) int {
	a.checkState(s)
	a.guardCache()
	return a.bestAction(s)
}

func (a *Agent) checkState(s int) {
	if s < 0 || s >= a.cfg.States {
		panic(fmt.Sprintf("rl: state %d out of range [0,%d)", s, a.cfg.States))
	}
}
