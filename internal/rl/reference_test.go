package rl

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// This file keeps the per-agent tabular learner the Fleet replaced, as an
// unexported differential oracle (fleet_test.go): one heap object per
// agent, its own Q-table, greedy index, RNG and probes, with ε computed
// inline on every read. It is the pre-fleet rl.Agent and rl.Table less
// the shared ε memo, whose hits are bit-equal to the inline computation.

// refTable is a dense state×action value table.
type refTable struct {
	states, actions int
	q               []float64
	// dirty marks writes made outside the agent's own update path (set,
	// copyFrom); the owning agent rebuilds its greedy index before its
	// next read.
	dirty bool
}

func newRefTable(states, actions int, initialQ float64) *refTable {
	q := make([]float64, states*actions)
	for i := range q {
		q[i] = initialQ
	}
	return &refTable{states: states, actions: actions, q: q}
}

func (t *refTable) get(s, a int) float64 { return t.q[s*t.actions+a] }

func (t *refTable) set(s, a int, v float64) {
	t.q[s*t.actions+a] = v
	t.dirty = true
}

// best returns the greedy action and its value for state s; ties break
// toward the lowest action index.
func (t *refTable) best(s int) (action int, value float64) {
	base := s * t.actions
	action, value = 0, t.q[base]
	for a := 1; a < t.actions; a++ {
		if v := t.q[base+a]; v > value {
			action, value = a, v
		}
	}
	return action, value
}

func (t *refTable) copyFrom(src []float64) {
	if len(src) != len(t.q) {
		panic(fmt.Sprintf("refTable: copyFrom %d values into %d", len(src), len(t.q)))
	}
	copy(t.q, src)
	t.dirty = true
}

// refAgent is one ε-greedy tabular TD learner. Use begin once, then
// alternate environment steps with step.
type refAgent struct {
	cfg   Config
	table *refTable
	r     *rng.RNG

	steps     int
	lastState int
	lastAct   int
	started   bool

	// greedy[s] is table.best(s)'s action. The agent's own updates keep it
	// current (noteUpdate); a write from outside marks the table dirty and
	// syncGreedy rebuilds it before the next read.
	greedy []uint8

	introspect   bool
	probe        Probe
	visited      []bool
	visitedCount int
	flips        int
	lastUpd      int
}

func newRefAgent(cfg Config, r *rng.RNG) *refAgent {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &refAgent{
		cfg:     cfg,
		table:   newRefTable(cfg.States, cfg.Actions, cfg.InitialQ),
		r:       r,
		greedy:  make([]uint8, cfg.States),
		lastUpd: -1,
	}
}

func (a *refAgent) epsilon() float64 {
	c := a.cfg
	return c.EpsilonEnd + (c.EpsilonStart-c.EpsilonEnd)*math.Pow(c.EpsilonDecay, float64(a.steps))
}

func (a *refAgent) syncGreedy() {
	if a.table.dirty {
		for s := range a.greedy {
			act, _ := a.table.best(s)
			a.greedy[s] = uint8(act)
		}
		a.table.dirty = false
	}
}

// noteUpdate keeps the greedy index exact after an update changed Q(s, act)
// from old to v, and reports whether s's greedy action flipped.
func (a *refAgent) noteUpdate(s, act int, old, v float64) bool {
	cur := int(a.greedy[s])
	next := cur
	if act == cur {
		if !(v >= old) {
			next, _ = a.table.best(s)
		}
	} else if g := a.table.get(s, cur); v > g || v == g && act < cur {
		next = act
	}
	if next == cur {
		return false
	}
	a.greedy[s] = uint8(next)
	return true
}

func (a *refAgent) selectAction(s int) int {
	eps := a.epsilon()
	if a.r.Float64() < eps {
		return a.r.Intn(a.cfg.Actions)
	}
	return int(a.greedy[s])
}

func (a *refAgent) begin(s int) int {
	a.checkState(s)
	a.syncGreedy()
	act := a.selectAction(s)
	a.lastState, a.lastAct = s, act
	a.started = true
	a.markVisited(s)
	return act
}

func (a *refAgent) step(reward float64, next int) int {
	if !a.started {
		panic("refAgent: step before begin")
	}
	a.checkState(next)
	a.syncGreedy()
	nextAct := a.selectAction(next)

	boot := nextAct
	if a.cfg.Algorithm == QLearning {
		boot = int(a.greedy[next])
	}
	bootstrap := a.table.get(next, boot)
	old := a.table.get(a.lastState, a.lastAct)
	delta := reward + a.cfg.Gamma*bootstrap - old
	nv := old + a.cfg.Alpha*delta
	a.table.q[a.lastState*a.cfg.Actions+a.lastAct] = nv
	flipped := a.noteUpdate(a.lastState, a.lastAct, old, nv)

	if a.introspect {
		a.probe.TDError = delta
		a.probe.GreedyChanged = flipped
		if flipped {
			a.flips++
		}
		a.probe.ActedGreedy = nextAct == int(a.greedy[next])
		a.lastUpd = a.lastState
		a.markVisited(next)
	}

	a.lastState, a.lastAct = next, nextAct
	a.steps++
	return nextAct
}

func (a *refAgent) greedyAt(s int) int {
	a.checkState(s)
	a.syncGreedy()
	return int(a.greedy[s])
}

func (a *refAgent) checkState(s int) {
	if s < 0 || s >= a.cfg.States {
		panic(fmt.Sprintf("refAgent: state %d out of range [0,%d)", s, a.cfg.States))
	}
}

func (a *refAgent) enableIntrospection() {
	if a.visited == nil {
		a.visited = make([]bool, a.cfg.States)
		if a.started {
			a.visited[a.lastState] = true
			a.visitedCount = 1
		}
	}
	a.introspect = true
}

func (a *refAgent) lastProbe() Probe {
	p := a.probe
	if a.introspect && a.lastUpd >= 0 {
		base := a.lastUpd * a.cfg.Actions
		row := a.table.q[base : base+a.cfg.Actions]
		lo, hi := row[0], row[0]
		for _, v := range row[1:] {
			if v > hi {
				hi = v
			}
			if v < lo {
				lo = v
			}
		}
		p.QSpread = hi - lo
	}
	return p
}

func (a *refAgent) takeFlips() int {
	f := a.flips
	a.flips = 0
	return f
}

func (a *refAgent) markVisited(s int) {
	if a.visited != nil && !a.visited[s] {
		a.visited[s] = true
		a.visitedCount++
	}
}
