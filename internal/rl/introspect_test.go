package rl

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func introCfg(alg Algorithm) Config {
	return Config{
		States: 6, Actions: 3,
		Alpha: 0.5, Gamma: 0.9,
		Algorithm:    alg,
		EpsilonStart: 0.3, EpsilonEnd: 0.05, EpsilonDecay: 0.99,
		InitialQ: 1.0,
	}
}

// driveAgent runs a fixed deterministic episode and returns the action
// stream.
func driveAgent(t *testing.T, a *solo, steps int) []int {
	t.Helper()
	acts := []int{a.Begin(0)}
	for i := 0; i < steps; i++ {
		s := (i*3 + 1) % 6
		r := math.Sin(float64(i)) // varied, deterministic rewards
		acts = append(acts, a.Step(r, s))
	}
	return acts
}

// TestIntrospectionIsReadOnly is the bit-identity contract: the same seeded
// agent must choose identical actions and learn identical tables with
// introspection on or off, for both algorithms.
func TestIntrospectionIsReadOnly(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"q-learning", introCfg(QLearning)},
		{"sarsa", introCfg(SARSA)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plain := newSolo(t, tc.cfg, 7)
			probed := newSolo(t, tc.cfg, 7)
			probed.EnableIntrospection()
			probed.EnableIntrospection() // idempotent
			a1 := driveAgent(t, plain, 200)
			a2 := driveAgent(t, probed, 200)
			for i := range a1 {
				if a1[i] != a2[i] {
					t.Fatalf("action stream diverges at step %d: %d vs %d", i, a1[i], a2[i])
				}
			}
			for s := 0; s < tc.cfg.States; s++ {
				for act := 0; act < tc.cfg.Actions; act++ {
					if plain.Q(s, act) != probed.Q(s, act) {
						t.Fatalf("Q(%d,%d) diverges", s, act)
					}
				}
			}
		})
	}
}

// TestProbeTDError checks the probe's δ against the hand-computed
// Q-learning TD error of a single step.
func TestProbeTDError(t *testing.T) {
	cfg := introCfg(QLearning)
	cfg.EpsilonStart, cfg.EpsilonEnd = 0, 0 // fully greedy: deterministic
	a := newSolo(t, cfg, 1)
	a.EnableIntrospection()
	lastAct := a.Begin(0)
	old := a.Q(0, lastAct)
	bootstrap := a.Q(2, a.Greedy(0, 2))
	reward := 0.25
	want := reward + cfg.Gamma*bootstrap - old
	a.Step(reward, 2)
	p := a.Probe(0)
	if p.TDError != want {
		t.Fatalf("TDError = %g, want %g", p.TDError, want)
	}
	if !p.ActedGreedy {
		t.Fatal("greedy agent's probe says it explored")
	}
	if p.QSpread < 0 {
		t.Fatalf("negative QSpread %g", p.QSpread)
	}
	if got := a.VisitedStates(0); got != 2 {
		t.Fatalf("VisitedStates = %d, want 2", got)
	}
}

// TestProbeGreedyChanged forces a large negative reward so the update flips
// the updated state's greedy action.
func TestProbeGreedyChanged(t *testing.T) {
	cfg := introCfg(QLearning)
	cfg.EpsilonStart, cfg.EpsilonEnd = 0, 0
	cfg.Alpha = 1.0
	a := newSolo(t, cfg, 1)
	a.EnableIntrospection()
	a.Begin(0)
	// With InitialQ uniform the greedy action is index 0 (ties break low);
	// a catastrophic reward pushes Q(0, act) far below the others.
	a.Step(-100, 1)
	if !a.Probe(0).GreedyChanged {
		t.Fatal("catastrophic update did not register as greedy churn")
	}
	if got := a.TakeFlips(0); got != 1 {
		t.Fatalf("TakeFlips = %d, want 1", got)
	}
	if got := a.TakeFlips(0); got != 0 {
		t.Fatalf("TakeFlips after a take = %d, want 0", got)
	}
	// A neutral follow-up in another state should not.
	a.Step(0.9+cfg.Gamma*1.0-1.0, 2) // δ = 0.9+γ·1−1 ≈ 0.8 on a fresh pair
	if a.Probe(0).TDError == 0 {
		t.Fatal("probe not refreshed on second step")
	}
}

// TestEnableIntrospectionMidRun enables probes after learning has begun:
// the current state must count as visited.
func TestEnableIntrospectionMidRun(t *testing.T) {
	a := newSolo(t, introCfg(QLearning), 3)
	a.Begin(4)
	a.EnableIntrospection()
	if got := a.VisitedStates(0); got != 1 {
		t.Fatalf("VisitedStates after mid-run enable = %d, want 1", got)
	}
	if p := a.Probe(0); p != (Probe{}) {
		t.Fatalf("probe should be zero before the first probed step, got %+v", p)
	}
}

// TestTableCopyTo: CopyPolicy exports every agent's table core-major and
// rejects a destination of the wrong size.
func TestTableCopyTo(t *testing.T) {
	cfg := introCfg(QLearning)
	cfg.States, cfg.Actions, cfg.InitialQ = 3, 2, 1.5
	f, err := NewFleet(cfg, 2, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	f.q[(1*3+2)*2+1] = -4 // agent 1, state 2, action 1
	dst := make([]float64, 12)
	if err := f.CopyPolicy(dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 1.5 || dst[6+2*2+1] != -4 {
		t.Fatalf("copied values wrong: %v", dst)
	}
	for _, n := range []int{0, 6, 11, 13} {
		if err := f.CopyPolicy(make([]float64, n)); err == nil {
			t.Errorf("%d-value dst accepted for a 2x3x2 fleet", n)
		}
	}
}
