package rl

// This file holds the learning-introspection hooks: a per-agent Probe the
// observability layer (internal/obs/learn) reads after the updates. The
// greedy index keeps the probes O(1) per step. The probes are pure
// observation — they never draw from an agent's RNG or change update
// order, so decision streams are bit-identical with introspection on or
// off. With it off, the cost is one untaken branch per step.

// Probe is the snapshot of one learning step, refreshed by every Step once
// EnableIntrospection has been called.
type Probe struct {
	// TDError is the raw temporal-difference error δ of the step's update
	// (before the learning-rate scaling).
	TDError float64
	// QSpread is max−min over the action values of the most recently
	// updated state — collapses toward the action gap as the policy
	// sharpens. Computed lazily by Probe (one row scan per read, not per
	// step).
	QSpread float64
	// GreedyChanged reports whether the update flipped the greedy action of
	// the updated state, the per-step form of policy churn.
	GreedyChanged bool
	// ActedGreedy reports whether the action the step returned is the
	// greedy action of the state it was chosen in.
	ActedGreedy bool
}

// agentProbe is one agent's probe state. A probed step writes all of it,
// so it is kept together rather than split into arrays.
type agentProbe struct {
	tdErr   float64
	lastUpd int32 // most recently updated state, -1 before the first probed step
	flips   int32 // greedy flips since TakeFlips
	visited int32 // distinct states occupied since introspection was enabled
	bits    uint8 // probeFlipped | probeActedGreedy
}

// Probe bits.
const (
	probeFlipped = 1 << iota
	probeActedGreedy
)

// EnableIntrospection turns on per-step probes and visit tracking for
// every agent; an agent that has begun counts its current state as
// visited. Idempotent; there is deliberately no way to turn it off, so
// observers never race a disable.
func (f *Fleet) EnableIntrospection() {
	if f.introspect {
		return
	}
	for i, s := range f.last {
		if s >= 0 {
			f.probes[i].visit(f.visitsOf(i), int(s))
		}
	}
	f.introspect = true
}

// Probe returns agent i's probe of its most recent Step, computing QSpread
// on demand. Zero before the first probed step or when introspection is
// off.
func (f *Fleet) Probe(i int) Probe {
	p := &f.probes[i]
	if !f.introspect || p.lastUpd < 0 {
		return Probe{}
	}
	return Probe{
		TDError:       p.tdErr,
		QSpread:       f.spreadAt(i*f.cfg.States + int(p.lastUpd)),
		GreedyChanged: p.bits&probeFlipped != 0,
		ActedGreedy:   p.bits&probeActedGreedy != 0,
	}
}

// VisitedStates counts distinct states agent i has occupied since
// introspection was enabled — the numerator of visit-count coverage.
func (f *Fleet) VisitedStates(i int) int { return int(f.probes[i].visited) }

// TakeFlips returns the number of agent i's greedy-policy flips recorded
// since the previous call and resets the counter — the exact any-flip
// signal a strided learning-telemetry emitter needs between emits.
func (f *Fleet) TakeFlips(i int) int {
	n := f.probes[i].flips
	f.probes[i].flips = 0
	return int(n)
}

// note records the agent's update of state prev: its TD error δ, whether
// it flipped prev's greedy action, and whether the action chosen next is
// greedy. Called only with introspection on.
func (p *agentProbe) note(prev int, delta float64, flipped, actedGreedy bool) {
	p.tdErr = delta
	var bits uint8
	if flipped {
		bits |= probeFlipped
		p.flips++
	}
	if actedGreedy {
		bits |= probeActedGreedy
	}
	p.bits = bits
	p.lastUpd = int32(prev)
}

// visit records the agent's occupancy of state s in its visit bitset w.
func (p *agentProbe) visit(w []uint64, s int) {
	if bit := uint64(1) << (s & 63); w[s>>6]&bit == 0 {
		w[s>>6] |= bit
		p.visited++
	}
}

// visitsOf is agent i's visit bitset.
func (f *Fleet) visitsOf(i int) []uint64 {
	return f.visits[i*f.visitWords:][:f.visitWords]
}

// spreadAt is max−min over the action values of Q row row.
func (f *Fleet) spreadAt(row int) float64 {
	a := f.cfg.Actions
	r := f.q[row*a : row*a+a]
	lo, hi := r[0], r[0]
	for _, v := range r[1:] {
		if v > hi {
			hi = v
		}
		if v < lo {
			lo = v
		}
	}
	return hi - lo
}
