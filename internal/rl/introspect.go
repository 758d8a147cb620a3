package rl

// This file holds the learning-introspection hooks: a per-step Probe the
// observability layer (internal/obs/learn) reads after every update. The
// agent's greedy index keeps the probes O(1) per step. The probes are pure
// observation — they never draw from the agent's RNG or change update
// order, so decision streams are bit-identical with introspection on or
// off. With it off, the cost is one untaken branch per step.

// Probe is the snapshot of one learning step, refreshed by every Step call
// once EnableIntrospection has been called.
type Probe struct {
	// TDError is the raw temporal-difference error δ of the step's update
	// (before the learning-rate scaling).
	TDError float64
	// QSpread is max−min over the action values of the most recently
	// updated state — collapses toward the action gap as the policy
	// sharpens. Computed lazily by LastProbe (one row scan per read, not
	// per step).
	QSpread float64
	// GreedyChanged reports whether the update flipped the greedy action of
	// the updated state, the per-step form of policy churn.
	GreedyChanged bool
	// ActedGreedy reports whether the action the step returned is the
	// greedy action of the state it was chosen in.
	ActedGreedy bool
}

// EnableIntrospection turns on per-step probes and visit tracking.
// Idempotent; there is deliberately no way to turn it off, so observers
// never race a disable.
func (a *Agent) EnableIntrospection() {
	if a.visited == nil {
		a.visited = make([]bool, a.cfg.States)
		if a.started {
			a.visited[a.lastState] = true
			a.visitedCount = 1
		}
	}
	a.introspect = true
}

// LastProbe returns the probe of the most recent Step, computing QSpread on
// demand. Zero before the first probed step or when introspection is off.
func (a *Agent) LastProbe() Probe {
	p := a.probe
	if a.introspect && a.lastUpd >= 0 {
		p.QSpread = a.spreadAt(a.lastUpd)
	}
	return p
}

// VisitedStates counts distinct states the agent has occupied since
// introspection was enabled — the numerator of visit-count coverage.
func (a *Agent) VisitedStates() int { return a.visitedCount }

// TakeFlips returns the number of greedy-policy flips recorded since the
// previous call and resets the counter — the exact any-flip signal a
// strided learning-telemetry emitter needs between emits.
func (a *Agent) TakeFlips() int {
	f := a.flips
	a.flips = 0
	return f
}

// finishProbe fills the probe after Step's update of (lastState, lastAct):
// its TD error δ, whether it flipped that state's greedy action, and
// whether nextAct is greedy at next. Called only with introspection on.
func (a *Agent) finishProbe(delta float64, flipped bool, next, nextAct int) {
	a.probe.TDError = delta
	a.probe.GreedyChanged = flipped
	if flipped {
		a.flips++
	}
	a.probe.ActedGreedy = nextAct == int(a.greedy[next])
	a.lastUpd = a.lastState
	a.markVisited(next)
}

// markVisited records occupancy of state s.
func (a *Agent) markVisited(s int) {
	if a.visited != nil && !a.visited[s] {
		a.visited[s] = true
		a.visitedCount++
	}
}

// spreadAt is max−min over the action values of state s.
func (a *Agent) spreadAt(s int) float64 {
	base := s * a.cfg.Actions
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
	return hi - lo
}
