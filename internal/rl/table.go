package rl

import (
	"encoding/json"
	"fmt"
)

// Table is a dense state×action value table.
type Table struct {
	states, actions int
	q               []float64
	// dirty marks mutations made outside the agent's own update path
	// (Set, CopyFrom, UnmarshalJSON); the owning agent rebuilds its greedy
	// index before its next read.
	dirty bool
}

// NewTable allocates a table initialised to initialQ.
func NewTable(states, actions int, initialQ float64) *Table {
	// Fill a local slice before building the Table: filling through t.q
	// reloads the field on every store once NewTable inlines.
	q := make([]float64, states*actions)
	if initialQ != 0 {
		for i := range q {
			q[i] = initialQ
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

// CopyFrom replaces this table's values with src's; dimensions must match.
func (t *Table) CopyFrom(src *Table) error {
	if src.states != t.states || src.actions != t.actions {
		return fmt.Errorf("rl: table shape mismatch: %dx%d vs %dx%d",
			src.states, src.actions, t.states, t.actions)
	}
	copy(t.q, src.q)
	t.dirty = true
	return nil
}

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

// tableState is the serialised form of a Table.
type tableState struct {
	States  int       `json:"states"`
	Actions int       `json:"actions"`
	Q       []float64 `json:"q"`
}

// MarshalJSON implements json.Marshaler so tables embed naturally in
// larger policy files.
func (t *Table) MarshalJSON() ([]byte, error) {
	return json.Marshal(tableState{States: t.states, Actions: t.actions, Q: t.q})
}

// UnmarshalJSON implements json.Unmarshaler. It rejects tables whose value
// count does not match their stated dimensions.
func (t *Table) UnmarshalJSON(data []byte) error {
	var s tableState
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("rl: decoding table: %w", err)
	}
	if s.States <= 0 || s.Actions <= 0 || len(s.Q) != s.States*s.Actions {
		return fmt.Errorf("rl: inconsistent table (%d states x %d actions, %d values)",
			s.States, s.Actions, len(s.Q))
	}
	t.states, t.actions, t.q = s.States, s.Actions, s.Q
	t.dirty = true
	return nil
}
