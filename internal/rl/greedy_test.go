package rl

import (
	"testing"

	"repro/internal/rng"
)

// TestGreedyIndexMatchesScan pins every agent's greedy index to a full
// row scan after every Begin and Step. Rewards in {−1, 0, 1} with
// α = γ = 0.5 and a uniform initial table keep every value dyadic, so exact
// ties recur and exercise the lowest-index tie-break; policy loads, of
// another fleet's tables or of an edited copy of the fleet's own, exercise
// the rebuild.
func TestGreedyIndexMatchesScan(t *testing.T) {
	const n, states, actions, steps = 3, 5, 4, 400
	for _, alg := range []Algorithm{QLearning, SARSA} {
		for seed := uint64(1); seed <= 64; seed++ {
			cfg := Config{
				States: states, Actions: actions,
				Alpha: 0.5, Gamma: 0.5,
				Algorithm:    alg,
				EpsilonStart: 0.3, EpsilonEnd: 0.3, EpsilonDecay: 1,
			}
			a, err := NewFleet(cfg, n, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			// other learns alongside and is the source of whole-policy
			// loads, so those replace a's values with different ones.
			other, err := NewFleet(cfg, n, rng.New(seed+1000))
			if err != nil {
				t.Fatal(err)
			}
			q := make([]float64, n*states*actions)
			env := rng.New(seed + 2000)
			reward := func() float64 { return float64(env.Intn(3) - 1) }
			st := make([]int32, n)
			rw := make([]float64, n)
			out := make([]int, n)
			draw := func() {
				for i := range st {
					st[i], rw[i] = int32(env.Intn(states)), reward()
				}
			}
			check := func(op string, step int) {
				t.Helper()
				if err := a.CopyPolicy(q); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					for s := 0; s < states; s++ {
						row := q[(i*states+s)*actions:][:actions]
						want := 0
						for k, v := range row {
							if v > row[want] {
								want = k
							}
						}
						if got := a.Greedy(i, s); got != want {
							t.Fatalf("%v seed %d step %d after %s: agent %d Greedy(%d) = %d, scan %d",
								alg, seed, step, op, i, s, got, want)
						}
					}
				}
			}

			draw()
			a.Begin(0, n, st, out)
			check("Begin", -1)
			other.Begin(0, n, st, out)
			for step := 0; step < steps; step++ {
				switch env.Intn(40) {
				case 0, 1, 2:
					if err := a.CopyPolicy(q); err != nil {
						t.Fatal(err)
					}
					q[env.Intn(len(q))] = reward()
					if err := a.LoadPolicy(q); err != nil {
						t.Fatal(err)
					}
					check("edit", step)
				case 3, 4:
					if err := other.CopyPolicy(q); err != nil {
						t.Fatal(err)
					}
					if err := a.LoadPolicy(q); err != nil {
						t.Fatal(err)
					}
					check("load", step)
				case 5:
					draw()
					a.Begin(0, n, st, out)
					check("Begin", step)
				}
				draw()
				a.Step(0, n, st, rw, out)
				check("Step", step)
				draw()
				other.Step(0, n, st, rw, out)
			}
		}
	}
}
