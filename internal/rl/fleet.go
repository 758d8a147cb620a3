package rl

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Fleet is n ε-greedy tabular TD learners that share one Config, held as
// struct-of-arrays: one Q slab, one greedy-index slab and one array per
// per-agent scalar (the learn probes, written together, are one struct per
// agent). The OD-RL controller keeps one agent per core, and its local
// phase steps a range of agents in one call (Step), so the common path of
// an agent update runs no per-agent call and chases no pointer.
//
// Agent i owns row-major table i of the Q slab, states [i·States,
// (i+1)·States) of the greedy slab and index i of every per-agent array.
// An update touches only its own agent's slots, so disjoint ranges may
// step concurrently.
type Fleet struct {
	cfg Config

	// q is every agent's Q-table, core-major and each table row-major:
	// exactly the full .qsnap tensor (snapshot.go), so a policy copies in
	// and out as one slice.
	q []float64
	// greedy[i·States+s] is the greedy action of agent i at state s,
	// lowest index on ties. Every update keeps it exact; LoadPolicy
	// rebuilds it.
	greedy []uint8

	steps   []int   // learning steps taken
	last    []int32 // state of the pending action, -1 before Begin
	lastAct []uint8 // the pending action
	rngs    []rng.RNG

	// olds and boots are Step's read-ahead scratch: the value of each
	// agent's pending action and its bootstrap value.
	olds, boots []float64

	// eps memoises the exploration schedule for the step counts WarmEpsilon
	// saw; Step only reads it.
	eps epsMemo

	// Introspection (see introspect.go); off by default and free when off.
	introspect bool
	probes     []agentProbe
	visits     []uint64 // visit bitsets, visitWords per agent
	visitWords int
}

// NewFleet creates n agents with configuration cfg. Agent i explores with
// the i-th stream split from base, in agent order.
func NewFleet(cfg Config, n int, base *rng.RNG) (*Fleet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("rl: fleet needs at least one agent, got %d", n)
	}
	if base == nil {
		return nil, fmt.Errorf("rl: nil rng")
	}
	words := (cfg.States + 63) / 64
	f := &Fleet{
		cfg:        cfg,
		q:          make([]float64, n*cfg.States*cfg.Actions),
		greedy:     make([]uint8, n*cfg.States),
		steps:      make([]int, n),
		last:       make([]int32, n),
		lastAct:    make([]uint8, n),
		rngs:       make([]rng.RNG, n),
		olds:       make([]float64, n),
		boots:      make([]float64, n),
		eps:        epsMemo{start: cfg.EpsilonStart, end: cfg.EpsilonEnd, decay: cfg.EpsilonDecay},
		probes:     make([]agentProbe, n),
		visits:     make([]uint64, n*words),
		visitWords: words,
	}
	// Fill by doubling copies: they run in the runtime's vectorised
	// memmove, so the fill's cost does not depend on where the linker
	// places this code. With a scalar store loop, building a 256-agent
	// controller took 25% longer at some code alignments (x86-64 Xeon).
	// The tables start uniform, so action 0 wins every tie and the zeroed
	// greedy index is already exact.
	if q := f.q; cfg.InitialQ != 0 {
		q[0] = cfg.InitialQ
		for k := 1; k < len(q); k *= 2 {
			copy(q[k:], q[:k])
		}
	}
	for i := range f.rngs {
		f.rngs[i] = *base.Split()
		f.last[i] = -1
		f.probes[i].lastUpd = -1
	}
	return f, nil
}

// Len returns the number of agents.
func (f *Fleet) Len() int { return len(f.steps) }

// Steps returns the number of learning steps agent i has taken.
func (f *Fleet) Steps(i int) int { return f.steps[i] }

// Greedy returns agent i's greedy action at state s without exploring or
// learning.
func (f *Fleet) Greedy(i, s int) int {
	f.checkState(s)
	return int(f.greedy[i*f.cfg.States+s])
}

// CopyPolicy copies every agent's Q-table into dst, core-major, which must
// hold exactly Len()·States·Actions values: the full .qsnap tensor.
func (f *Fleet) CopyPolicy(dst []float64) error {
	if len(dst) != len(f.q) {
		return fmt.Errorf("rl: CopyPolicy dst has %d values, fleet has %d", len(dst), len(f.q))
	}
	copy(dst, f.q)
	return nil
}

// LoadPolicy replaces every agent's Q-table with src, laid out as
// CopyPolicy writes it, and rebuilds the greedy index. A src of the wrong
// length is refused and changes nothing.
func (f *Fleet) LoadPolicy(src []float64) error {
	if len(src) != len(f.q) {
		return fmt.Errorf("rl: LoadPolicy src has %d values, fleet has %d", len(src), len(f.q))
	}
	copy(f.q, src)
	for row := range f.greedy {
		f.greedy[row] = uint8(f.best(row))
	}
	return nil
}

// best is the greedy action of Q row row (agent·States + state): the
// highest value, lowest index on ties. A NaN never wins a comparison, so
// a row led by NaN answers 0. It compares order keys (orderKey), whose
// integer maximum the compiler tracks with conditional moves: which
// action leads a row is data the branch predictor cannot learn.
func (f *Fleet) best(row int) int {
	a := f.cfg.Actions
	r := f.q[row*a : row*a+a]
	if r[0] != r[0] {
		return 0
	}
	act, top := 0, orderKey(r[0])
	for k := 1; k < len(r); k++ {
		if key := orderKey(r[k]); key > top {
			act, top = k, key
		}
	}
	return act
}

// orderKey maps x to an integer that compares as x does: −0 and +0 share
// key 0, and NaN, which compares false with everything, takes the least
// key, below −Inf's, so it never wins a strict comparison.
func orderKey(x float64) int64 {
	b := int64(math.Float64bits(x))
	mag := b & math.MaxInt64
	if mag > 0x7ff0000000000000 { // NaN
		mag = math.MinInt64
	}
	neg := b >> 63 // all ones for a negative x
	return (mag ^ neg) - neg
}

// Epsilon returns agent i's current exploration parameter.
func (f *Fleet) Epsilon(i int) float64 { return f.epsilon(f.steps[i]) }

// epsilon is ε(t) = end + (start − end)·decay^t, served by the memo when
// WarmEpsilon stored t.
func (f *Fleet) epsilon(t int) float64 {
	if v, ok := f.eps.lookup(t); ok {
		return v
	}
	return f.eps.at(t)
}

// WarmEpsilon refills the ε memo with one slot per distinct step count
// among the agents i with skip[i] false, in agent order, until the slots
// run out; later counts compute inline. A nil skip skips no agent. Call it
// from one goroutine while no Step runs: Step reads the memo unlocked.
//
//odrl:hotpath
func (f *Fleet) WarmEpsilon(skip []bool) {
	f.eps.n = 0
	last := -1
	for i, t := range f.steps {
		if skip != nil && skip[i] {
			continue
		}
		if t != last {
			if !f.eps.add(t) {
				return
			}
			last = t
		}
	}
}

// Begin starts (or restarts) agents [lo, hi) at states[i] and writes each
// one's first action to out[i]. An agent whose state is negative sits the
// call out and out[i] is left alone. No learning happens.
//
//odrl:hotpath
func (f *Fleet) Begin(lo, hi int, states []int32, out []int) {
	for i := lo; i < hi; i++ {
		s := states[i]
		if s < 0 {
			continue
		}
		f.checkState(int(s))
		act := f.explore(i, int(f.greedy[i*f.cfg.States+int(s)]))
		f.last[i], f.lastAct[i] = s, uint8(act)
		if f.introspect {
			f.probes[i].visit(f.visitsOf(i), int(s))
		}
		out[i] = act
	}
}

// explore is ε-greedy selection for agent i, whose greedy action at the
// state it acts in is g.
func (f *Fleet) explore(i, g int) int {
	r := &f.rngs[i]
	if r.Float64() < f.epsilon(f.steps[i]) {
		return r.Intn(f.cfg.Actions)
	}
	return g
}

// Step is one learning step of agents [lo, hi): agent i receives
// rewards[i] for its pending action, observes states[i], updates the
// value of the pending action by its TD error, chooses its next action
// ε-greedily and writes it to out[i]. An agent whose state is negative
// sits the call out and out[i] is left alone. Per agent it performs the
// floating-point operations of one tabular update in a fixed order, so
// results do not depend on how a fleet is split into ranges. It panics on
// an agent that never began: that is a wiring bug.
//
//odrl:hotpath
func (f *Fleet) Step(lo, hi int, states []int32, rewards []float64, out []int) {
	// Slab headers live in locals: the loop stores to the slabs, which
	// would otherwise force a reload of every header through f.
	q, greedy, steps, last, lastAct := f.q, f.greedy, f.steps, f.last, f.lastAct
	olds, boots := f.olds, f.boots
	probes, visits, words := f.probes, f.visits, f.visitWords
	ns, na := f.cfg.States, f.cfg.Actions
	alpha, gamma := f.cfg.Alpha, f.cfg.Gamma
	qlearn, introspect := f.cfg.Algorithm == QLearning, f.introspect

	// Read ahead: each live agent's value of its pending action and, for
	// Q-learning, its bootstrap, the value of the greedy action at the
	// next state. Both are values before this step's update, and no
	// agent's read depends on another's, so one pass starts them all and
	// their cache misses overlap.
	for i := lo; i < hi; i++ {
		s := int(states[i])
		if s < 0 {
			continue
		}
		f.checkState(s)
		prev := int(last[i])
		if prev < 0 {
			panic("rl: Step before Begin")
		}
		olds[i] = q[(i*ns+prev)*na+int(lastAct[i])]
		if qlearn {
			row := i*ns + s
			boots[i] = q[row*na+int(greedy[row])]
		}
	}

	epsT, eps := -1, 0.0
	for i := lo; i < hi; i++ {
		s := int(states[i])
		if s < 0 {
			continue
		}
		row := i*ns + s
		// ε-greedy: agents in lockstep share one step count, so ε is
		// looked up again only when the count changes.
		if t := steps[i]; t != epsT {
			epsT, eps = t, f.epsilon(t)
		}
		act := int(greedy[row])
		if r := &f.rngs[i]; r.Float64() < eps {
			act = r.Intn(na)
		}
		bootstrap := boots[i]
		if !qlearn {
			// SARSA bootstraps from the action it will take.
			bootstrap = q[row*na+act]
		}
		prev, pact := int(last[i]), int(lastAct[i])
		prow := i*ns + prev
		old := olds[i]
		delta := rewards[i] + gamma*bootstrap - old
		nv := old + alpha*delta
		q[prow*na+pact] = nv

		// Keep the greedy index exact. A greedy value that rose or held
		// keeps its action: no lower-index action can have caught up. A
		// fall (or a NaN) rescans the row. Another action takes over when
		// it beats the greedy value, or ties it from a lower index.
		cur := int(greedy[prow])
		next := cur
		if pact == cur {
			if !(nv >= old) {
				next = f.best(prow)
			}
		} else if g := q[prow*na+cur]; nv > g || nv == g && pact < cur {
			next = pact
		}
		flipped := next != cur
		if flipped {
			greedy[prow] = uint8(next)
		}
		if introspect {
			p := &probes[i]
			p.note(prev, delta, flipped, act == int(greedy[row]))
			p.visit(visits[i*words:][:words], s)
		}

		last[i], lastAct[i] = int32(s), uint8(act)
		steps[i]++
		out[i] = act
	}
}

// checkState panics on a state outside [0, States): a wrong index would
// otherwise read another agent's table.
func (f *Fleet) checkState(s int) {
	if uint(s) >= uint(f.cfg.States) {
		panic(stateError{s, f.cfg.States})
	}
}

// stateError is checkState's panic value, formatted only when read.
type stateError struct{ s, states int }

func (e stateError) Error() string {
	return fmt.Sprintf("rl: state %d out of range [0,%d)", e.s, e.states)
}

// epsilonSlots is how many distinct step counts the ε memo serves.
// Lockstep fleets need one. Agents held behind the OD-RL telemetry
// watchdog lag, and a chip-wide blackout holds every live agent for the
// same epochs, so only a few counts coexist: at most 5 in any epoch of 40
// seeds of the 256-core barrier run under fault.Scaled(0.5). Counts
// beyond the slots compute inline.
const epsilonSlots = 8

// epsMemo memoises a few points of the exploration schedule. A stored
// value is computed by the expression an uncached read uses (at), so a
// hit is bit-equal to the computation it skips.
type epsMemo struct {
	start, end, decay float64
	n                 int // filled slots
	steps             [epsilonSlots]int
	vals              [epsilonSlots]float64
}

// at computes ε at step count t.
func (m *epsMemo) at(t int) float64 {
	return m.end + (m.start-m.end)*math.Pow(m.decay, float64(t))
}

// add stores ε at step count t in a free slot, unless t is already served
// or every slot is taken, and reports whether t is served afterwards.
func (m *epsMemo) add(t int) bool {
	if _, ok := m.lookup(t); ok {
		return true
	}
	if m.n == epsilonSlots {
		return false
	}
	m.steps[m.n] = t
	m.vals[m.n] = m.at(t)
	m.n++
	return true
}

// lookup returns the stored ε at step count t, if a slot holds it.
func (m *epsMemo) lookup(t int) (float64, bool) {
	for k := 0; k < m.n; k++ {
		if m.steps[k] == t {
			return m.vals[k], true
		}
	}
	return 0, false
}
