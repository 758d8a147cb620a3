package rl

import (
	"encoding/json"
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

// TestTableSaveLoadRoundTrip round-trips a table through MarshalJSON and
// UnmarshalJSON, the form policy files embed.
func TestTableSaveLoadRoundTrip(t *testing.T) {
	tbl := NewTable(3, 2, 0)
	tbl.Set(1, 1, 4.25)
	tbl.Set(2, 0, -1.5)
	data, err := json.Marshal(tbl)
	if err != nil {
		t.Fatal(err)
	}
	var back Table
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.States() != 3 || back.Actions() != 2 {
		t.Fatal("dimensions lost")
	}
	if back.Get(1, 1) != 4.25 || back.Get(2, 0) != -1.5 {
		t.Fatal("values lost")
	}
}

// TestLoadTableRejectsGarbage pins UnmarshalJSON's consistency checks.
func TestLoadTableRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		`{"states":2,"actions":2,"q":"x"}`,       // decode error
		`{"states":2,"actions":2,"q":[1]}`,       // too few values
		`{"states":0,"actions":2,"q":[]}`,        // no states
		`{"states":2,"actions":-1,"q":[1,2]}`,    // negative actions
		`{"states":1,"actions":2,"q":[1,2,3,4]}`, // too many values
	} {
		var tbl Table
		if err := json.Unmarshal([]byte(in), &tbl); err == nil {
			t.Errorf("%s: accepted", in)
		}
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
