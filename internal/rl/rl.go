// Package rl provides the tabular reinforcement-learning machinery the
// OD-RL controller builds on: a fleet of ε-greedy Q-learning or SARSA
// agents with a decaying exploration schedule, held as struct-of-arrays
// over one Q slab (fleet.go), a tile-coded linear SARSA(λ)
// agent for the function-approximation mode, helpers for discretising
// continuous telemetry into table states, and the policy snapshot codec
// (snapshot.go), the one file format for learned Q-tables.
//
// The per-core agents are deliberately table-based. The paper's agents must
// run every millisecond on hundreds of cores; a handful of multiplies per
// decision is the entire point of the approach, and the F5 scalability
// experiment measures exactly that.
package rl

import "fmt"

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

// Config parameterises the agents of a Fleet.
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
