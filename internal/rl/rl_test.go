package rl

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func baseConfig() Config {
	return Config{
		States:       4,
		Actions:      2,
		Alpha:        0.2,
		Gamma:        0.9,
		Algorithm:    QLearning,
		EpsilonStart: 1.0,
		EpsilonEnd:   0.01,
		EpsilonDecay: 0.999,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := baseConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	widest := baseConfig()
	widest.Actions = 256
	if err := widest.Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.States = 0 },
		func(c *Config) { c.Actions = 0 },
		func(c *Config) { c.Actions = 257 }, // the greedy index holds one byte per state
		func(c *Config) { c.Alpha = 0 },
		func(c *Config) { c.Alpha = 1.5 },
		func(c *Config) { c.Gamma = 1.0 },
		func(c *Config) { c.Gamma = -0.1 },
		func(c *Config) { c.EpsilonStart = 1.2 },
		func(c *Config) { c.EpsilonEnd = 2.0 },
		func(c *Config) { c.EpsilonDecay = 0 },
		func(c *Config) { c.Algorithm = Algorithm(9) },
	}
	for i, mutate := range mutations {
		c := baseConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: expected validation error", i)
		}
	}
}

func TestAlgorithmString(t *testing.T) {
	if QLearning.String() != "q-learning" || SARSA.String() != "sarsa" {
		t.Fatal("algorithm names wrong")
	}
	if Algorithm(7).String() == "" {
		t.Fatal("unknown algorithm must still stringify")
	}
}

// TestTableBasics: an agent's Q-table is its States×Actions block of the
// fleet's slab, filled with InitialQ; a loaded value reads back, and the
// greedy action breaks ties toward the lowest index.
func TestTableBasics(t *testing.T) {
	cfg := baseConfig()
	cfg.States, cfg.Actions, cfg.InitialQ = 3, 2, 0.5
	f, err := NewFleet(cfg, 2, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 2 || len(f.q) != 2*3*2 || len(f.greedy) != 2*3 {
		t.Fatal("dimensions wrong")
	}
	if f.q[(1*3+1)*2+1] != 0.5 {
		t.Fatal("optimistic init missing")
	}
	q := make([]float64, len(f.q))
	if err := f.CopyPolicy(q); err != nil {
		t.Fatal(err)
	}
	q[(1*3+2)*2+0] = 3.0 // agent 1, state 2, action 0
	q[(1*3+0)*2+0], q[(1*3+0)*2+1] = 1, 1
	q[(0*3+2)*2+1] = 4.0 // agent 0, state 2, action 1
	if err := f.LoadPolicy(q); err != nil {
		t.Fatal(err)
	}
	if f.q[(1*3+2)*2+0] != 3.0 {
		t.Fatal("load/read roundtrip failed")
	}
	if f.Greedy(1, 2) != 0 || f.Greedy(0, 2) != 1 {
		t.Fatalf("greedy = (%d, %d), want (0, 1)", f.Greedy(1, 2), f.Greedy(0, 2))
	}
	// Tie-break toward the lowest index.
	if f.Greedy(1, 0) != 0 {
		t.Fatal("tie must break to action 0")
	}
}

func TestEpsilonSchedule(t *testing.T) {
	cfg := baseConfig()
	a := newSolo(t, cfg, 1)
	if got := a.Epsilon(0); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("initial epsilon = %v, want 1.0", got)
	}
	a.Begin(0)
	for i := 0; i < 10000; i++ {
		a.Step(0, 0)
	}
	if got := a.Epsilon(0); got > 0.02 {
		t.Fatalf("epsilon after 10k steps = %v, want near end value 0.01", got)
	}
	if a.Steps(0) != 10000 {
		t.Fatalf("Steps = %d, want 10000", a.Steps(0))
	}
}

func TestStepBeforeBeginPanics(t *testing.T) {
	a := newSolo(t, baseConfig(), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Step(1, 0)
}

func TestStatePanicsOutOfRange(t *testing.T) {
	a := newSolo(t, baseConfig(), 1)
	a.Begin(0)
	for _, s := range []int{4, 99} {
		for name, call := range map[string]func(){
			"Begin":  func() { a.Begin(s) },
			"Step":   func() { a.Step(0, s) },
			"Greedy": func() { a.Greedy(0, s) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s at state %d: expected panic", name, s)
					}
				}()
				call()
			}()
		}
	}
}

func TestNilRNGRejected(t *testing.T) {
	if _, err := NewFleet(baseConfig(), 1, nil); err == nil {
		t.Fatal("expected error for nil rng")
	}
	if _, err := NewFleet(baseConfig(), 0, rng.New(1)); err == nil {
		t.Fatal("expected error for an empty fleet")
	}
	bad := baseConfig()
	bad.Alpha = 0
	if _, err := NewFleet(bad, 1, rng.New(1)); err == nil {
		t.Fatal("expected error for an invalid config")
	}
}

// twoArmedBandit: single state, action 1 pays 1.0, action 0 pays 0.1.
// Any sane learner must converge to action 1 greedily.
func TestBanditConvergence(t *testing.T) {
	for _, alg := range []Algorithm{QLearning, SARSA} {
		cfg := baseConfig()
		cfg.States = 1
		cfg.Actions = 2
		cfg.Algorithm = alg
		cfg.EpsilonDecay = 0.995
		a := newSolo(t, cfg, 5)
		act := a.Begin(0)
		for i := 0; i < 5000; i++ {
			reward := 0.1
			if act == 1 {
				reward = 1.0
			}
			act = a.Step(reward, 0)
		}
		if a.Greedy(0, 0) != 1 {
			t.Errorf("%v: greedy action = %d, want 1", alg, a.Greedy(0, 0))
		}
	}
}

// chainMDP tests multi-step credit assignment: states 0..3, action 1 moves
// right, action 0 moves left (clamped); reward 1 only when entering state 3,
// else 0. Optimal policy is always-right from every state.
func TestChainMDPCreditAssignment(t *testing.T) {
	cfg := baseConfig()
	cfg.States = 4
	cfg.Actions = 2
	cfg.Alpha = 0.3
	cfg.EpsilonDecay = 0.9995
	a := newSolo(t, cfg, 11)
	s := 0
	act := a.Begin(s)
	for i := 0; i < 30000; i++ {
		next := s
		if act == 1 {
			next++
		} else {
			next--
		}
		if next < 0 {
			next = 0
		}
		reward := 0.0
		if next == 3 {
			reward = 1.0
			// episode restarts
			a.Step(reward, 0)
			s = 0
			act = a.Begin(0)
			continue
		}
		act = a.Step(reward, next)
		s = next
	}
	for st := 0; st < 3; st++ {
		if a.Greedy(0, st) != 1 {
			t.Fatalf("state %d: greedy action = %d, want 1 (right)", st, a.Greedy(0, st))
		}
	}
}

// Q-learning must learn the off-policy optimum even under heavy exploration.
// In the continuing teleport formulation, the reward of 1 recurs every three
// right-moves, so Q*(0,right) = γ²·(1 + γ³ + γ⁶ + …) = γ²/(1−γ³).
func TestQLearningValueMagnitude(t *testing.T) {
	cfg := baseConfig()
	cfg.States = 4
	cfg.Actions = 2
	cfg.Alpha = 0.1
	cfg.Gamma = 0.9
	cfg.EpsilonStart = 1.0
	cfg.EpsilonEnd = 1.0 // pure exploration; Q-learning is off-policy
	cfg.EpsilonDecay = 1.0
	a := newSolo(t, cfg, 13)
	s := 0
	act := a.Begin(s)
	for i := 0; i < 200000; i++ {
		next := s
		if act == 1 {
			next++
		} else {
			next--
		}
		if next < 0 {
			next = 0
		}
		reward := 0.0
		if next == 3 {
			reward = 1.0
			next = 0 // teleport home, continuing episode
		}
		act = a.Step(reward, next)
		s = next
	}
	g := cfg.Gamma
	want := g * g / (1 - g*g*g)
	got := a.Q(0, 1)
	if math.Abs(got-want) > 0.15 {
		t.Fatalf("Q(0,right) = %v, want ~%v", got, want)
	}
}

func TestSARSAIsOnPolicy(t *testing.T) {
	// Under permanent full exploration SARSA's values reflect the random
	// policy, which in the chain yields strictly lower Q(0,right) than the
	// off-policy optimum Q-learning finds.
	run := func(alg Algorithm) float64 {
		cfg := baseConfig()
		cfg.States = 4
		cfg.Actions = 2
		cfg.Alpha = 0.1
		cfg.Gamma = 0.9
		cfg.Algorithm = alg
		cfg.EpsilonStart = 1.0
		cfg.EpsilonEnd = 1.0
		cfg.EpsilonDecay = 1.0
		a := newSolo(t, cfg, 17)
		s := 0
		act := a.Begin(s)
		for i := 0; i < 200000; i++ {
			next := s
			if act == 1 {
				next++
			} else {
				next--
			}
			if next < 0 {
				next = 0
			}
			reward := 0.0
			if next == 3 {
				reward = 1.0
				next = 0
			}
			act = a.Step(reward, next)
			s = next
		}
		return a.Q(0, 1)
	}
	q := run(QLearning)
	sarsa := run(SARSA)
	if sarsa >= q {
		t.Fatalf("SARSA value %v should be below Q-learning %v under exploration", sarsa, q)
	}
}

func TestDeterministicLearning(t *testing.T) {
	run := func() float64 {
		a := newSolo(t, baseConfig(), 23)
		act := a.Begin(0)
		for i := 0; i < 1000; i++ {
			r := float64(act)
			act = a.Step(r, (i+act)%4)
		}
		sum := 0.0
		for s := 0; s < 4; s++ {
			for ac := 0; ac < 2; ac++ {
				sum += a.Q(s, ac)
			}
		}
		return sum
	}
	if run() != run() {
		t.Fatal("same-seed agents learned different tables")
	}
}

// Property: Q-values stay bounded by Rmax/(1−γ) for bounded rewards.
func TestQuickQValueBounds(t *testing.T) {
	f := func(seed uint64, rewards []uint8) bool {
		cfg := baseConfig()
		cfg.InitialQ = 0
		a := newSolo(t, cfg, seed)
		a.Begin(0)
		bound := 1.0/(1-cfg.Gamma) + 1e-9
		for i, rw := range rewards {
			r := float64(rw%100) / 100.0 // rewards in [0,1)
			a.Step(r, i%cfg.States)
		}
		for s := 0; s < cfg.States; s++ {
			for ac := 0; ac < cfg.Actions; ac++ {
				v := a.Q(s, ac)
				if v < -bound || v > bound {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAgentStep(b *testing.B) {
	cfg := baseConfig()
	cfg.States = 128
	cfg.Actions = 8
	a := newSolo(b, cfg, 1)
	a.Begin(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Step(0.5, i%128)
	}
}
