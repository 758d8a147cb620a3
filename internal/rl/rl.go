// Package rl provides the tabular reinforcement-learning machinery the
// OD-RL controller builds on: Q-tables, ε-greedy Q-learning and SARSA
// agents with a decaying exploration schedule, a tile-coded linear SARSA(λ)
// agent for the function-approximation mode, helpers for discretising
// continuous telemetry into table states, and the policy snapshot codec
// (snapshot.go), the one file format for learned Q-tables.
//
// The per-core agents are deliberately table-based. The paper's agents must
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
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// maxActions bounds Config.Actions: the greedy index holds one byte per
// state.
const maxActions = 256

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
	// EpsilonStart/EpsilonEnd/EpsilonDecay give the ε-greedy exploration
	// schedule ε(t) = end + (start − end)·decay^t.
	EpsilonStart float64
	EpsilonEnd   float64
	EpsilonDecay float64
	// InitialQ optimistically initialises the table to encourage early
	// exploration of untried actions.
	InitialQ float64
}

// Validate reports the first invalid hyper-parameter.
func (c Config) Validate() error {
	switch {
	case c.States <= 0:
		return fmt.Errorf("rl: States must be positive, got %d", c.States)
	case c.Actions <= 0 || c.Actions > maxActions:
		return fmt.Errorf("rl: Actions must be in [1,%d], got %d", maxActions, c.Actions)
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
	case c.Algorithm != QLearning && c.Algorithm != SARSA:
		return fmt.Errorf("rl: unknown algorithm %d", c.Algorithm)
	}
	return nil
}

// Agent is one ε-greedy tabular TD learner. Use Begin once, then
// alternate environment steps with Step.
type Agent struct {
	cfg   Config
	table *Table
	r     *rng.RNG

	steps     int
	lastState int
	lastAct   int
	started   bool

	// greedy[s] is Table.Best(s)'s action, lowest index on ties. The
	// agent's own updates keep it current (noteUpdate); a mutation from
	// outside marks the table dirty and syncGreedy rebuilds it before the
	// next read.
	greedy []uint8

	// shared exploration-schedule memo; nil means compute per call.
	epsCache *EpsilonCache

	// introspection (see introspect.go); off by default and free when off.
	introspect   bool
	probe        Probe
	visited      []bool
	visitedCount int
	flips        int // greedy flips since TakeFlips
	lastUpd      int // most recently updated state, -1 before the first probed step
}

// NewAgent creates an agent. The RNG drives exploration.
func NewAgent(cfg Config, r *rng.RNG) (*Agent, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if r == nil {
		return nil, fmt.Errorf("rl: nil rng")
	}
	// A fresh table is uniform at InitialQ, so action 0 wins every tie and
	// the zeroed index is already exact.
	return &Agent{
		cfg:     cfg,
		table:   NewTable(cfg.States, cfg.Actions, cfg.InitialQ),
		r:       r,
		greedy:  make([]uint8, cfg.States),
		lastUpd: -1,
	}, nil
}

// Table exposes the agent's Q-table for inspection, policy persistence and
// warm starts. A write through it marks the table dirty, and the agent
// rebuilds its greedy index before its next read.
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

// syncGreedy rebuilds the greedy index if the table was mutated from
// outside the agent. One branch on the hot path; rebuilds are rare
// (warm-start loads, tests).
func (a *Agent) syncGreedy() {
	if a.table.dirty {
		a.rebuildGreedy()
	}
}

// rebuildGreedy recomputes every state's greedy action with Table.Best.
func (a *Agent) rebuildGreedy() {
	for s := range a.greedy {
		act, _ := a.table.Best(s)
		a.greedy[s] = uint8(act)
	}
	a.table.dirty = false
}

// noteUpdate keeps the greedy index exact after an update changed Q(s, act)
// from old to v, and reports whether s's greedy action flipped. The
// incremental cases reproduce Table.Best's lowest-index tie-break; only a
// fallen greedy value forces a row rescan.
func (a *Agent) noteUpdate(s, act int, old, v float64) bool {
	cur := int(a.greedy[s])
	next := cur
	if act == cur {
		// A greedy value that rose or held keeps its action: no
		// lower-index action can have caught up. Anything else (a fall,
		// or a NaN) rescans.
		if !(v >= old) {
			next, _ = a.table.Best(s)
		}
	} else if g := a.table.Get(s, cur); v > g || v == g && act < cur {
		next = act
	}
	if next == cur {
		return false
	}
	a.greedy[s] = uint8(next)
	return true
}

// selectAction is ε-greedy at state s.
func (a *Agent) selectAction(s int) int {
	eps := a.Epsilon()
	if a.r.Float64() < eps {
		return a.r.Intn(a.cfg.Actions)
	}
	return int(a.greedy[s])
}

// Begin starts (or restarts) an episode at state s and returns the first
// action. No learning happens.
func (a *Agent) Begin(s int) int {
	a.checkState(s)
	a.syncGreedy()
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
	a.syncGreedy()
	nextAct := a.selectAction(next)

	// Q-learning bootstraps from the greedy next action, SARSA from the
	// action it will take.
	boot := nextAct
	if a.cfg.Algorithm == QLearning {
		boot = int(a.greedy[next])
	}
	bootstrap := a.table.Get(next, boot)
	old := a.table.Get(a.lastState, a.lastAct)
	delta := reward + a.cfg.Gamma*bootstrap - old
	nv := old + a.cfg.Alpha*delta
	a.table.q[a.lastState*a.cfg.Actions+a.lastAct] = nv
	flipped := a.noteUpdate(a.lastState, a.lastAct, old, nv)

	if a.introspect {
		a.finishProbe(delta, flipped, next, nextAct)
	}

	a.lastState, a.lastAct = next, nextAct
	a.steps++
	return nextAct
}

// Greedy returns the greedy action at state s without exploring or learning.
func (a *Agent) Greedy(s int) int {
	a.checkState(s)
	a.syncGreedy()
	return int(a.greedy[s])
}

func (a *Agent) checkState(s int) {
	if s < 0 || s >= a.cfg.States {
		panic(fmt.Sprintf("rl: state %d out of range [0,%d)", s, a.cfg.States))
	}
}
