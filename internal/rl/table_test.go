package rl

import (
	"testing"

	"repro/internal/rng"
)

// runChain trains an agent on the continuing form of rl_test.go's chain
// MDP: reward 1 on entering state 3, then back to state 0.
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

// TestNewTableFillsEveryCell: the doubling fill reaches every cell for
// sizes that are not powers of two.
func TestNewTableFillsEveryCell(t *testing.T) {
	for _, dims := range [][2]int{{1, 1}, {3, 2}, {7, 1}, {125, 8}} {
		tbl := NewTable(dims[0], dims[1], 2)
		for s := 0; s < dims[0]; s++ {
			for a := 0; a < dims[1]; a++ {
				if v := tbl.Get(s, a); v != 2 {
					t.Fatalf("%dx%d table: Q(%d,%d) = %v, want 2", dims[0], dims[1], s, a, v)
				}
			}
		}
	}
}

// TestTableSaveLoadRoundTrip round-trips a table through a one-core
// policy snapshot, the form policy files hold: CopyTo, Encode,
// DecodeSnapshot, then CopyFrom into a fresh table.
func TestTableSaveLoadRoundTrip(t *testing.T) {
	tbl := NewTable(3, 2, 0)
	tbl.Set(1, 1, 4.25)
	tbl.Set(2, 0, -1.5)
	s := Snapshot{Cores: 1, States: 3, Actions: 2, Q: make([]float64, 6)}
	if err := tbl.CopyTo(s.Q); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeSnapshot(s.Encode())
	if err != nil {
		t.Fatal(err)
	}
	loaded := NewTable(3, 2, 0)
	if err := loaded.CopyFrom(back.Q); err != nil {
		t.Fatal(err)
	}
	if loaded.Get(1, 1) != 4.25 || loaded.Get(2, 0) != -1.5 {
		t.Fatal("values lost")
	}
}

// TestLoadTableRejectsGarbage: CopyFrom refuses a slice whose length is
// not states×actions and leaves the table as it was.
func TestLoadTableRejectsGarbage(t *testing.T) {
	tbl := NewTable(3, 2, 1.5)
	for _, n := range []int{0, 5, 7, 12} {
		if err := tbl.CopyFrom(make([]float64, n)); err == nil {
			t.Errorf("%d values accepted by a 3x2 table", n)
		}
	}
	if tbl.dirty || tbl.Get(2, 1) != 1.5 {
		t.Fatal("refused copy changed the table")
	}
}

// TestCopyFrom: CopyFrom is CopyTo's inverse and marks the table dirty, so
// an owning agent rebuilds its greedy index.
func TestCopyFrom(t *testing.T) {
	src := NewTable(2, 2, 1.5)
	src.Set(0, 1, -2)
	q := make([]float64, 4)
	if err := src.CopyTo(q); err != nil {
		t.Fatal(err)
	}
	dst := NewTable(2, 2, 0)
	if err := dst.CopyFrom(q); err != nil {
		t.Fatal(err)
	}
	if !dst.dirty || dst.Get(1, 1) != 1.5 || dst.Get(0, 1) != -2 {
		t.Fatal("copy failed")
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
	q := make([]float64, cfg.States*cfg.Actions)
	if err := trained.Table().CopyTo(q); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Table().CopyFrom(q); err != nil {
		t.Fatal(err)
	}
	for st := 0; st < 3; st++ {
		if fresh.Greedy(st) != trained.Greedy(st) {
			t.Fatal("warm-started agent disagrees with its source policy")
		}
	}
}
