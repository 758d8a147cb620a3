package rl

import (
	"testing"

	"repro/internal/rng"
)

// TestGreedyIndexMatchesScan pins the agent's greedy index to Table.Best,
// the full-row scan, after every Begin and Step. Rewards in {−1, 0, 1} with
// α = γ = 0.5 and a uniform initial table keep every value dyadic, so exact
// ties recur and exercise the lowest-index tie-break; writes from outside
// the agent (Set, CopyFrom) exercise the dirty rebuild.
func TestGreedyIndexMatchesScan(t *testing.T) {
	const states, actions, steps = 5, 4, 400
	for _, alg := range []Algorithm{QLearning, SARSA} {
		for seed := uint64(1); seed <= 64; seed++ {
			cfg := Config{
				States: states, Actions: actions,
				Alpha: 0.5, Gamma: 0.5,
				Algorithm:    alg,
				EpsilonStart: 0.3, EpsilonEnd: 0.3, EpsilonDecay: 1,
			}
			a, err := NewAgent(cfg, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			// other learns alongside and is the source of CopyFrom writes,
			// so those replace a's values with different ones.
			other, err := NewAgent(cfg, rng.New(seed+1000))
			if err != nil {
				t.Fatal(err)
			}
			q := make([]float64, states*actions)
			env := rng.New(seed + 2000)
			reward := func() float64 { return float64(env.Intn(3) - 1) }
			check := func(op string, step int) {
				t.Helper()
				for s := 0; s < states; s++ {
					want, _ := a.Table().Best(s)
					if got := a.Greedy(s); got != want {
						t.Fatalf("%v seed %d step %d after %s: Greedy(%d) = %d, Table.Best = %d",
							alg, seed, step, op, s, got, want)
					}
				}
			}

			a.Begin(0)
			check("Begin", -1)
			other.Begin(0)
			for step := 0; step < steps; step++ {
				switch env.Intn(40) {
				case 0, 1, 2:
					a.Table().Set(env.Intn(states), env.Intn(actions), reward())
				case 3, 4:
					if err := other.Table().CopyTo(q); err != nil {
						t.Fatal(err)
					}
					if err := a.Table().CopyFrom(q); err != nil {
						t.Fatal(err)
					}
				case 5:
					a.Begin(env.Intn(states))
					check("Begin", step)
				}
				a.Step(reward(), env.Intn(states))
				check("Step", step)
				other.Step(reward(), env.Intn(states))
			}
		}
	}
}
