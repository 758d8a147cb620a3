package rl

import "fmt"

// Table is a dense state×action value table.
type Table struct {
	states, actions int
	q               []float64
	// dirty marks mutations made outside the agent's own update path
	// (Set, CopyFrom); the owning agent rebuilds its greedy index before
	// its next read.
	dirty bool
}

// NewTable allocates a table initialised to initialQ.
func NewTable(states, actions int, initialQ float64) *Table {
	// Fill by doubling copies: they run in the runtime's vectorised
	// memmove, so the fill's cost does not depend on where the linker
	// places this code. With a scalar store loop, building a 256-agent
	// controller took 25% longer at some code alignments (x86-64 Xeon).
	q := make([]float64, states*actions)
	if initialQ != 0 && len(q) > 0 {
		q[0] = initialQ
		for n := 1; n < len(q); n *= 2 {
			copy(q[n:], q[:n])
		}
	}
	return &Table{states: states, actions: actions, q: q}
}

// Get returns Q(s, a).
func (t *Table) Get(s, a int) float64 { return t.q[s*t.actions+a] }

// Set assigns Q(s, a).
func (t *Table) Set(s, a int, v float64) {
	t.q[s*t.actions+a] = v
	t.dirty = true
}

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

// CopyTo copies the table's values into dst, which must have exactly
// states×actions capacity — the zero-allocation export the policy-snapshot
// layer builds on.
func (t *Table) CopyTo(dst []float64) error {
	if len(dst) != len(t.q) {
		return fmt.Errorf("rl: CopyTo dst has %d values, table has %d", len(dst), len(t.q))
	}
	copy(dst, t.q)
	return nil
}

// CopyFrom replaces the table's values with src, which must hold exactly
// states×actions values — the inverse of CopyTo, through which a loaded
// policy reaches the agents. It marks the table dirty.
func (t *Table) CopyFrom(src []float64) error {
	if len(src) != len(t.q) {
		return fmt.Errorf("rl: CopyFrom src has %d values, table has %d", len(src), len(t.q))
	}
	copy(t.q, src)
	t.dirty = true
	return nil
}
