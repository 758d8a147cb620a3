package rl

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/rng"
)

func TestExtensionConfigValidation(t *testing.T) {
	c := baseConfig()
	c.TraceLambda = 1.0
	if err := c.Validate(); err == nil {
		t.Fatal("TraceLambda = 1 must be rejected")
	}
	c = baseConfig()
	c.TraceLambda = -0.5
	if err := c.Validate(); err == nil {
		t.Fatal("negative TraceLambda must be rejected")
	}
	c = baseConfig()
	c.Algorithm = DoubleQLearning
	c.TraceLambda = 0.5
	if err := c.Validate(); err == nil {
		t.Fatal("double-Q + traces must be rejected")
	}
	c = baseConfig()
	c.Algorithm = DoubleQLearning
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if DoubleQLearning.String() != "double-q-learning" {
		t.Fatal("name wrong")
	}
}

// The chain MDP from rl_test.go, reused: both extensions must still find
// the always-right policy.
func runChain(t *testing.T, cfg Config, steps int) *Agent {
	t.Helper()
	a, err := NewAgent(cfg, rng.New(29))
	if err != nil {
		t.Fatal(err)
	}
	s := 0
	act := a.Begin(s)
	for i := 0; i < steps; i++ {
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
	return a
}

func TestTracesSolveChain(t *testing.T) {
	cfg := baseConfig()
	cfg.TraceLambda = 0.8
	cfg.Alpha = 0.2
	cfg.EpsilonDecay = 0.9995
	a := runChain(t, cfg, 30000)
	for st := 0; st < 3; st++ {
		if a.Greedy(st) != 1 {
			t.Fatalf("Q(λ): state %d greedy action = %d, want 1", st, a.Greedy(st))
		}
	}
}

func TestTracesLearnFasterOnDelayedReward(t *testing.T) {
	// With the same small step budget, Q(λ) should have propagated more
	// value back to the start state than one-step Q-learning.
	base := baseConfig()
	base.Alpha = 0.2
	base.EpsilonStart = 1.0
	base.EpsilonEnd = 1.0
	base.EpsilonDecay = 1.0
	withTraces := base
	withTraces.TraceLambda = 0.9

	q0 := runChain(t, base, 3000).Table().Get(0, 1)
	qTr := runChain(t, withTraces, 3000).Table().Get(0, 1)
	if qTr <= q0 {
		t.Fatalf("traces did not accelerate propagation: Q(λ)=%v vs Q=%v", qTr, q0)
	}
}

func TestDoubleQSolvesChain(t *testing.T) {
	cfg := baseConfig()
	cfg.Algorithm = DoubleQLearning
	cfg.Alpha = 0.2
	cfg.EpsilonDecay = 0.9995
	a := runChain(t, cfg, 40000)
	for st := 0; st < 3; st++ {
		if a.Greedy(st) != 1 {
			t.Fatalf("double-Q: state %d greedy action = %d, want 1", st, a.Greedy(st))
		}
	}
}

// TestDoubleQLessBiasedUnderNoise checks the point of double Q-learning: on
// a bandit whose 8 arms all pay zero-mean unit noise (true max value 0),
// the max learned value overestimates less than single Q-learning's. One
// run's max estimate is itself noisy (over 640 seed pairs the paired gap
// has sd ≈ 0.14 around a mean ≈ 0.1), so a single pair decides nothing; the
// test averages 64 pairs and requires the mean gap to exceed 3 standard
// errors.
func TestDoubleQLessBiasedUnderNoise(t *testing.T) {
	estimate := func(alg Algorithm, agentSeed, noiseSeed uint64) float64 {
		cfg := baseConfig()
		cfg.States = 1
		cfg.Actions = 8
		cfg.Algorithm = alg
		cfg.Alpha = 0.1
		cfg.Gamma = 0.0 // bandit: value = expected reward
		cfg.EpsilonStart = 1.0
		cfg.EpsilonEnd = 1.0
		cfg.EpsilonDecay = 1.0
		a, err := NewAgent(cfg, rng.New(agentSeed))
		if err != nil {
			t.Fatal(err)
		}
		noise := rng.New(noiseSeed)
		a.Begin(0)
		for i := 0; i < 50000; i++ {
			a.Step(noise.NormFloat64(), 0)
		}
		best := math.Inf(-1)
		for act := 0; act < 8; act++ {
			best = math.Max(best, a.valueOf(0, act))
		}
		return best
	}
	const pairs = 64
	var sum, sumSq float64
	for k := uint64(1); k <= pairs; k++ {
		gap := estimate(QLearning, k, 1000+k) - estimate(DoubleQLearning, k, 1000+k)
		sum += gap
		sumSq += gap * gap
	}
	mean := sum / pairs
	se := math.Sqrt((sumSq/pairs-mean*mean)*pairs/(pairs-1)) / math.Sqrt(pairs)
	if mean <= 3*se {
		t.Fatalf("single-Q minus double-Q mean max estimate %.4f, want > 3 SE = %.4f", mean, 3*se)
	}
	t.Logf("single-Q minus double-Q mean max estimate %.4f (%.1f SE)", mean, mean/se)
}

func TestTableSaveLoadRoundTrip(t *testing.T) {
	tbl := NewTable(3, 2, 0)
	tbl.Set(1, 1, 4.25)
	tbl.Set(2, 0, -1.5)
	var buf bytes.Buffer
	if err := tbl.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.States() != 3 || back.Actions() != 2 {
		t.Fatal("dimensions lost")
	}
	if back.Get(1, 1) != 4.25 || back.Get(2, 0) != -1.5 {
		t.Fatal("values lost")
	}
}

func TestLoadTableRejectsGarbage(t *testing.T) {
	if _, err := LoadTable(bytes.NewBufferString("{")); err == nil {
		t.Fatal("expected decode error")
	}
	if _, err := LoadTable(bytes.NewBufferString(`{"states":2,"actions":2,"q":[1]}`)); err == nil {
		t.Fatal("expected consistency error")
	}
	if _, err := LoadTable(bytes.NewBufferString(`{"states":0,"actions":2,"q":[]}`)); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestCopyFrom(t *testing.T) {
	src := NewTable(2, 2, 1.5)
	dst := NewTable(2, 2, 0)
	if err := dst.CopyFrom(src); err != nil {
		t.Fatal(err)
	}
	if dst.Get(1, 1) != 1.5 {
		t.Fatal("copy failed")
	}
	other := NewTable(3, 2, 0)
	if err := dst.CopyFrom(other); err == nil {
		t.Fatal("expected shape-mismatch error")
	}
}

func TestWarmStartViaCopy(t *testing.T) {
	// A trained table copied into a fresh agent makes it act greedily
	// correct from step one.
	cfg := baseConfig()
	cfg.EpsilonStart = 0
	cfg.EpsilonEnd = 0
	trained := runChain(t, baseConfig(), 30000)
	fresh, err := NewAgent(cfg, rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Table().CopyFrom(trained.Table()); err != nil {
		t.Fatal(err)
	}
	for st := 0; st < 3; st++ {
		if fresh.Greedy(st) != trained.Greedy(st) {
			t.Fatal("warm-started agent disagrees with its source policy")
		}
	}
}
