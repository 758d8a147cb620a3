package rl

import (
	"testing"

	"repro/internal/rng"
)

// runChain trains an agent on the continuing form of rl_test.go's chain
// MDP: reward 1 on entering state 3, then back to state 0.
func runChain(t *testing.T, cfg Config, steps int) *solo {
	t.Helper()
	a := newSolo(t, cfg, 29)
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

// TestNewTableFillsEveryCell: the doubling fill reaches every cell of the
// slab for sizes that are not powers of two.
func TestNewTableFillsEveryCell(t *testing.T) {
	for _, dims := range [][3]int{{1, 1, 1}, {3, 2, 1}, {7, 1, 3}, {125, 8, 5}} {
		cfg := baseConfig()
		cfg.States, cfg.Actions, cfg.InitialQ = dims[0], dims[1], 2
		f, err := NewFleet(cfg, dims[2], rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range f.q {
			if v != 2 {
				t.Fatalf("%dx%dx%d slab: cell %d = %v, want 2", dims[2], dims[0], dims[1], k, v)
			}
		}
	}
}

// TestTableSaveLoadRoundTrip round-trips a fleet's tables through a
// policy snapshot, the form policy files hold: CopyPolicy, Encode,
// DecodeSnapshot, then LoadPolicy into a fresh fleet.
func TestTableSaveLoadRoundTrip(t *testing.T) {
	src := runChain(t, baseConfig(), 2000)
	cfg := src.cfg
	s := Snapshot{Cores: 1, States: cfg.States, Actions: cfg.Actions, Q: make([]float64, cfg.States*cfg.Actions)}
	if err := src.CopyPolicy(s.Q); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeSnapshot(s.Encode())
	if err != nil {
		t.Fatal(err)
	}
	loaded := newSolo(t, cfg, 3)
	if err := loaded.LoadPolicy(back.Q); err != nil {
		t.Fatal(err)
	}
	for st := 0; st < cfg.States; st++ {
		for act := 0; act < cfg.Actions; act++ {
			if loaded.Q(st, act) != src.Q(st, act) {
				t.Fatalf("Q(%d,%d) = %v after the round trip, want %v", st, act, loaded.Q(st, act), src.Q(st, act))
			}
		}
	}
}

// TestLoadTableRejectsGarbage: LoadPolicy refuses a slice whose length is
// not the slab's and leaves the tables and greedy index as they were.
func TestLoadTableRejectsGarbage(t *testing.T) {
	a := runChain(t, baseConfig(), 2000)
	before := append([]float64(nil), a.q...)
	greedy := append([]uint8(nil), a.greedy...)
	for _, n := range []int{0, 7, 9, 16} {
		if err := a.LoadPolicy(make([]float64, n)); err == nil {
			t.Errorf("%d values accepted by a 4x2 table", n)
		}
	}
	for k := range before {
		if a.q[k] != before[k] {
			t.Fatal("refused load changed the table")
		}
	}
	if string(a.greedy) != string(greedy) {
		t.Fatal("refused load changed the greedy index")
	}
}

// TestCopyFrom: LoadPolicy is CopyPolicy's inverse and rebuilds the greedy
// index from the loaded values.
func TestCopyFrom(t *testing.T) {
	cfg := baseConfig()
	cfg.States, cfg.Actions, cfg.InitialQ = 2, 3, 1.5
	src, err := NewFleet(cfg, 2, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	src.q[1] = 4  // agent 0, state 0: action 1 leads
	src.q[11] = 2 // agent 1, state 1: action 2 leads
	q := make([]float64, 12)
	if err := src.CopyPolicy(q); err != nil {
		t.Fatal(err)
	}
	dst, err := NewFleet(cfg, 2, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.LoadPolicy(q); err != nil {
		t.Fatal(err)
	}
	for k := range q {
		if dst.q[k] != q[k] {
			t.Fatalf("cell %d = %v, want %v", k, dst.q[k], q[k])
		}
	}
	if dst.Greedy(0, 0) != 1 || dst.Greedy(1, 1) != 2 || dst.Greedy(0, 1) != 0 {
		t.Fatalf("greedy index not rebuilt: %v", dst.greedy)
	}
}

func TestWarmStartViaCopy(t *testing.T) {
	// A trained table copied into a fresh agent makes it act greedily
	// correct from step one.
	cfg := baseConfig()
	cfg.EpsilonStart = 0
	cfg.EpsilonEnd = 0
	trained := runChain(t, baseConfig(), 30000)
	fresh := newSolo(t, cfg, 41)
	q := make([]float64, cfg.States*cfg.Actions)
	if err := trained.CopyPolicy(q); err != nil {
		t.Fatal(err)
	}
	if err := fresh.LoadPolicy(q); err != nil {
		t.Fatal(err)
	}
	for st := 0; st < 3; st++ {
		if fresh.Greedy(0, st) != trained.Greedy(0, st) {
			t.Fatal("warm-started agent disagrees with its source policy")
		}
		if fresh.Begin(st) != trained.Greedy(0, st) {
			t.Fatal("warm-started agent does not act on its source policy")
		}
	}
}
