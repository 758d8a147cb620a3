package rl

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// TestEpsilonCacheBitEqual drives two identically-seeded agents — one
// attached to a properly warmed shared cache, one without — and requires
// identical epsilon values and identical action streams at every step.
func TestEpsilonCacheBitEqual(t *testing.T) {
	cfg := Config{
		States: 12, Actions: 4,
		Alpha: 0.2, Gamma: 0.9,
		EpsilonStart: 0.5, EpsilonEnd: 0.02, EpsilonDecay: 0.999,
	}
	cached, err := NewAgent(cfg, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewAgent(cfg, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	ec := NewEpsilonCache(cfg.EpsilonStart, cfg.EpsilonEnd, cfg.EpsilonDecay)
	if !cached.AttachEpsilonCache(ec) {
		t.Fatal("matching cache refused")
	}

	ec.Reset()
	ec.Add(0)
	if a, b := cached.Begin(0), plain.Begin(0); a != b {
		t.Fatalf("Begin diverged: %d vs %d", a, b)
	}
	st := rng.New(5)
	for step := 0; step < 400; step++ {
		ec.Reset()
		ec.Add(step) // the lockstep count selectAction sees this step
		s := st.Intn(cfg.States)
		r := st.Float64()
		if ce, pe := cached.Epsilon(), plain.Epsilon(); ce != pe ||
			math.Float64bits(ce) != math.Float64bits(pe) {
			t.Fatalf("step %d: epsilon diverged: %v vs %v", step, ce, pe)
		}
		if a, b := cached.Step(r, s), plain.Step(r, s); a != b {
			t.Fatalf("step %d: action diverged: %d vs %d", step, a, b)
		}
	}
}

// TestEpsilonCacheMissComputesInline: an agent that fell out of lockstep
// (cache warmed for a different step count) must compute its own epsilon,
// bit-equal to the schedule, and must not write to the shared cache.
func TestEpsilonCacheMissComputesInline(t *testing.T) {
	cfg := Config{
		States: 4, Actions: 3,
		Alpha: 0.2, Gamma: 0.9,
		EpsilonStart: 0.5, EpsilonEnd: 0.02, EpsilonDecay: 0.999,
	}
	a, err := NewAgent(cfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	ec := NewEpsilonCache(cfg.EpsilonStart, cfg.EpsilonEnd, cfg.EpsilonDecay)
	a.AttachEpsilonCache(ec)
	ec.Reset()
	ec.Add(1000) // agent is at step 0: guaranteed miss
	want := cfg.EpsilonEnd + (cfg.EpsilonStart-cfg.EpsilonEnd)*math.Pow(cfg.EpsilonDecay, 0)
	if got := a.Epsilon(); got != want {
		t.Fatalf("miss path: got %v want %v", got, want)
	}
	if ec.n != 1 || ec.steps[0] != 1000 {
		t.Fatalf("miss path wrote to the shared cache: %d slots, first step %d", ec.n, ec.steps[0])
	}
}

// TestEpsilonCacheRejectsMismatch: attaching a cache for a different
// schedule must be refused, leaving the agent computing inline.
func TestEpsilonCacheRejectsMismatch(t *testing.T) {
	cfg := Config{
		States: 4, Actions: 3,
		Alpha: 0.2, Gamma: 0.9,
		EpsilonStart: 0.5, EpsilonEnd: 0.02, EpsilonDecay: 0.999,
	}
	a, err := NewAgent(cfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if a.AttachEpsilonCache(NewEpsilonCache(0.9, 0.02, 0.999)) {
		t.Fatal("mismatched cache accepted")
	}
	if a.epsCache != nil {
		t.Fatal("agent attached to mismatched cache")
	}
}
