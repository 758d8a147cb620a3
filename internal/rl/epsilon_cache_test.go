package rl

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// memoized reports whether agent i's current ε is served by f's memo
// rather than computed.
func memoized(f *Fleet, i int) bool {
	_, ok := f.eps.lookup(f.steps[i])
	return ok
}

// TestEpsilonCacheBitEqual drives two identically seeded fleets — one
// whose ε memo is warmed before every step, as the OD-RL controller warms
// it, one whose memo stays cold — and requires bit-identical ε values and
// identical action streams at every step.
func TestEpsilonCacheBitEqual(t *testing.T) {
	const n = 4
	cfg := Config{
		States: 12, Actions: 4,
		Alpha: 0.2, Gamma: 0.9,
		EpsilonStart: 0.5, EpsilonEnd: 0.02, EpsilonDecay: 0.999,
	}
	cached, err := NewFleet(cfg, n, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewFleet(cfg, n, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}

	st := make([]int32, n)
	rw := make([]float64, n)
	co, po := make([]int, n), make([]int, n)
	cached.WarmEpsilon(nil)
	if !memoized(cached, 0) {
		t.Fatal("warmed memo does not serve step 0")
	}
	cached.Begin(0, n, st, co)
	plain.Begin(0, n, st, po)
	env := rng.New(5)
	for step := 0; step < 400; step++ {
		cached.WarmEpsilon(nil) // the lockstep count every agent sits at
		for i := range st {
			st[i], rw[i] = int32(env.Intn(cfg.States)), env.Float64()
			if !memoized(cached, i) || memoized(plain, i) {
				t.Fatalf("step %d agent %d: memoised %v (warmed) and %v (cold)",
					step, i, memoized(cached, i), memoized(plain, i))
			}
			if ce, pe := cached.Epsilon(i), plain.Epsilon(i); math.Float64bits(ce) != math.Float64bits(pe) {
				t.Fatalf("step %d agent %d: epsilon diverged: %v vs %v", step, i, ce, pe)
			}
		}
		cached.Step(0, n, st, rw, co)
		plain.Step(0, n, st, rw, po)
		for i := range co {
			if co[i] != po[i] {
				t.Fatalf("step %d agent %d: action diverged: %d vs %d", step, i, co[i], po[i])
			}
		}
	}
}

// TestEpsilonCacheMissComputesInline: an agent out of lockstep (its step
// count left out of the warm-up, or past the last slot) computes its own
// ε, bit-equal to the schedule, and reading it writes nothing to the memo.
func TestEpsilonCacheMissComputesInline(t *testing.T) {
	cfg := Config{
		States: 4, Actions: 3,
		Alpha: 0.2, Gamma: 0.9,
		EpsilonStart: 0.5, EpsilonEnd: 0.02, EpsilonDecay: 0.999,
	}
	const n = epsilonSlots + 2
	f, err := NewFleet(cfg, n, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	// Agent i has taken i steps: n distinct counts, two more than the
	// slots hold.
	for i := range f.steps {
		f.steps[i] = i
	}
	skip := make([]bool, n)
	skip[0] = true
	f.WarmEpsilon(skip)
	if f.eps.n != epsilonSlots || f.eps.steps[0] != 1 {
		t.Fatalf("warm-up filled %d slots from count %d, want %d from 1", f.eps.n, f.eps.steps[0], epsilonSlots)
	}
	memo := f.eps
	for i := 0; i < n; i++ {
		want := cfg.EpsilonEnd + (cfg.EpsilonStart-cfg.EpsilonEnd)*math.Pow(cfg.EpsilonDecay, float64(i))
		if got := f.Epsilon(i); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("agent %d: ε %v, want %v", i, got, want)
		}
		if hit := i >= 1 && i <= epsilonSlots; memoized(f, i) != hit {
			t.Fatalf("agent %d: memoised %v, want %v", i, memoized(f, i), hit)
		}
	}
	if f.eps != memo {
		t.Fatal("a miss wrote to the memo")
	}
}

// TestEpsilonMemoServesInterleavedCounts: agents held by the OD-RL
// telemetry watchdog lag in interleaved groups, so equal step counts are
// not adjacent in agent order. While the distinct counts of the agents
// not skipped fit the slots, one warm-up serves every such agent with one
// slot per count, and a skipped agent takes no slot.
func TestEpsilonMemoServesInterleavedCounts(t *testing.T) {
	cfg := Config{
		States: 4, Actions: 3,
		Alpha: 0.2, Gamma: 0.9,
		EpsilonStart: 0.5, EpsilonEnd: 0.02, EpsilonDecay: 0.999,
	}
	const n = 256
	f, err := NewFleet(cfg, n, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	skip := make([]bool, n)
	for i := range f.steps {
		f.steps[i] = 40
		if i%2 == 0 {
			f.steps[i] -= 12
		}
		if i%3 == 0 {
			f.steps[i] -= 18
		}
		if i%7 == 5 { // a retired core: its count is its own
			skip[i], f.steps[i] = true, 1000+i
		}
	}
	f.WarmEpsilon(skip)
	if f.eps.n != 4 {
		t.Fatalf("warm-up filled %d slots, want 4 (counts 10, 22, 28, 40)", f.eps.n)
	}
	for i := range f.steps {
		if !skip[i] && !memoized(f, i) {
			t.Fatalf("agent %d at step %d not served by the memo", i, f.steps[i])
		}
	}
}
