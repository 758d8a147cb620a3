package core

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/power"
	"repro/internal/rl"
	"repro/internal/vf"
)

func TestPolicySaveLoadRoundTrip(t *testing.T) {
	src := newController(t, 4, Config{Seed: 5})
	out := make([]int, 4)
	tel := fakeTel(4, 2, 1.0, 0.3)
	for e := 0; e < 200; e++ {
		src.Decide(tel, 30, out)
	}

	var buf bytes.Buffer
	if err := src.SavePolicy(&buf); err != nil {
		t.Fatal(err)
	}

	dst := newController(t, 4, Config{Seed: 99})
	if err := dst.LoadPolicy(&buf); err != nil {
		t.Fatal(err)
	}
	// The restored tables must match the source exactly.
	for i := range src.agents {
		st, dt := src.agents[i].Table(), dst.agents[i].Table()
		for s := 0; s < st.States(); s++ {
			for a := 0; a < st.Actions(); a++ {
				if st.Get(s, a) != dt.Get(s, a) {
					t.Fatalf("agent %d Q(%d,%d) differs after restore", i, s, a)
				}
			}
		}
	}
}

func TestLoadPolicyRejectsMismatches(t *testing.T) {
	src := newController(t, 4, Config{})
	var buf bytes.Buffer
	if err := src.SavePolicy(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.String()

	// Wrong core count.
	dst := newController(t, 8, Config{})
	if err := dst.LoadPolicy(strings.NewReader(saved)); err == nil {
		t.Fatal("expected core-count mismatch error")
	}

	// Wrong state shape (different bucket counts).
	dst2 := newController(t, 4, Config{HeadroomBuckets: 3})
	if err := dst2.LoadPolicy(strings.NewReader(saved)); err == nil {
		t.Fatal("expected shape mismatch error")
	}

	// Garbage input.
	dst3 := newController(t, 4, Config{})
	if err := dst3.LoadPolicy(strings.NewReader("{nope")); err == nil {
		t.Fatal("expected decode error")
	}

	// Wrong version.
	bad := strings.Replace(saved, `"version":1`, `"version":9`, 1)
	if err := dst3.LoadPolicy(strings.NewReader(bad)); err == nil {
		t.Fatal("expected version error")
	}
}

func TestWarmStartedControllerActsLikeSource(t *testing.T) {
	cfgTrained := DefaultConfig()
	cfgTrained.Seed = 7
	src := newController(t, 2, cfgTrained)
	out := make([]int, 2)
	tel := fakeTel(2, 2, 1.0, 0.2)
	for e := 0; e < 500; e++ {
		src.Decide(tel, 15, out)
	}
	var buf bytes.Buffer
	if err := src.SavePolicy(&buf); err != nil {
		t.Fatal(err)
	}

	// A fresh controller with exploration disabled must act greedily per
	// the restored policy immediately.
	cfg := DefaultConfig()
	cfg.EpsilonStart = 1e-9
	cfg.EpsilonEnd = 1e-10
	warm, err := New(2, vf.Default(), power.Default(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.LoadPolicy(&buf); err != nil {
		t.Fatal(err)
	}
	warmOut := make([]int, 2)
	warm.Decide(tel, 15, warmOut)
	for i := range warmOut {
		state := warm.stateOf(&tel.Cores[i], warm.Budgets()[i])
		if warmOut[i] != warm.agents[i].Greedy(state) {
			t.Fatalf("warm-started agent %d did not act greedily on its restored policy", i)
		}
	}
}

// TestODRLWithTraceLambda: eligibility traces belong to the
// function-approximation agents. A tabular controller refuses λ rather
// than ignoring it; an FA controller with λ runs and picks valid levels.
func TestODRLWithTraceLambda(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TraceLambda = 0.8
	if _, err := New(4, vf.Default(), power.Default(), cfg); err == nil {
		t.Fatal("expected error for TraceLambda without FunctionApprox")
	}
	cfg.FunctionApprox = true
	c, err := New(4, vf.Default(), power.Default(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int, 4)
	tel := fakeTel(4, 2, 1.0, 0.3)
	for e := 0; e < 100; e++ {
		c.Decide(tel, 30, out)
		for _, l := range out {
			if l < 0 || l >= vf.Default().Levels() {
				t.Fatalf("invalid level %d", l)
			}
		}
	}
}

// agentState is every agent's Q-values (as bits, so NaN compares) and
// greedy action per state: what a refused LoadPolicy must leave alone.
func agentState(c *Controller) [][]uint64 {
	out := make([][]uint64, len(c.agents))
	for i, a := range c.agents {
		tbl := a.Table()
		row := make([]uint64, 0, tbl.States()*(tbl.Actions()+1))
		for s := 0; s < tbl.States(); s++ {
			for act := 0; act < tbl.Actions(); act++ {
				row = append(row, math.Float64bits(tbl.Get(s, act)))
			}
			row = append(row, uint64(a.Greedy(s)))
		}
		out[i] = row
	}
	return out
}

func sameAgentState(a, b [][]uint64) bool {
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// corruptPolicies returns a saved policy of src with its last table
// replaced by null, then by a 2x2 table: both pass every file-level
// check, so only the per-table check can refuse them.
func corruptPolicies(t testing.TB, src *Controller) [][]byte {
	t.Helper()
	var buf bytes.Buffer
	if err := src.SavePolicy(&buf); err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, last := range []*rl.Table{nil, rl.NewTable(2, 2, 0)} {
		var pf policyFile
		if err := json.Unmarshal(buf.Bytes(), &pf); err != nil {
			t.Fatal(err)
		}
		pf.Tables[len(pf.Tables)-1] = last
		data, err := json.Marshal(pf)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

// trainedController runs a controller long enough that its tables and
// greedy actions differ from a fresh one's.
func trainedController(t testing.TB, cores int, cfg Config) *Controller {
	t.Helper()
	c, err := New(cores, vf.Default(), power.Default(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int, cores)
	for e := 0; e < 60; e++ {
		c.Decide(fakeTel(cores, e%4, 0.5+0.1*float64(e%7), 0.3), 30, out)
	}
	return c
}

// TestLoadPolicyIsAtomic: a policy refused on its last table must leave
// every agent unchanged, not only the agents after the bad table.
func TestLoadPolicyIsAtomic(t *testing.T) {
	src := trainedController(t, 4, Config{Seed: 5})
	dst := trainedController(t, 4, Config{Seed: 99})
	before := agentState(dst)
	for k, data := range corruptPolicies(t, src) {
		if err := dst.LoadPolicy(bytes.NewReader(data)); err == nil {
			t.Fatalf("corrupt policy %d accepted", k)
		}
		if !sameAgentState(before, agentState(dst)) {
			t.Fatalf("refused policy %d changed the controller's agents", k)
		}
	}
}

// FuzzLoadPolicy: the policy decoder reads files (the warm-start example),
// so arbitrary bytes must never panic it. A refused policy changes no
// agent; an accepted one leaves every agent's greedy index equal to
// Table.Best, both right after the load and after the controller has
// learned from it.
func FuzzLoadPolicy(f *testing.F) {
	// One headroom and one memory bucket keep a saved policy to a few KB,
	// small enough for the fuzzer to mutate and minimise quickly.
	small := func(seed uint64) Config { return Config{Seed: seed, HeadroomBuckets: 1, MemBuckets: 1} }
	src := trainedController(f, 3, small(5))
	var saved bytes.Buffer
	if err := src.SavePolicy(&saved); err != nil {
		f.Fatal(err)
	}
	f.Add(saved.Bytes())
	for _, data := range corruptPolicies(f, src) {
		f.Add(data)
	}
	f.Add([]byte(`{"version":1,"cores":3,"states":8,"actions":8,"tables":[]}`))
	f.Add([]byte(`{nope`))

	tel := fakeTel(3, 2, 0.7, 0.3)
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := New(3, vf.Default(), power.Default(), small(99))
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int, 3)
		c.Decide(tel, 30, out)
		before := agentState(c)
		if err := c.LoadPolicy(bytes.NewReader(data)); err != nil {
			if !sameAgentState(before, agentState(c)) {
				t.Fatalf("refused policy changed the agents: %v", err)
			}
			return
		}
		checkGreedyIndex(t, c)
		for e := 0; e < 3; e++ {
			c.Decide(tel, 30, out)
		}
		checkGreedyIndex(t, c)
	})
}

// checkGreedyIndex compares every agent's greedy action with a full row
// scan. A row holding NaN is skipped: Table.Best's answer then depends on
// where the NaN sits, and only a policy whose values overflow the update
// arithmetic produces one.
func checkGreedyIndex(t *testing.T, c *Controller) {
	t.Helper()
	for i, a := range c.agents {
		tbl := a.Table()
	states:
		for s := 0; s < tbl.States(); s++ {
			for act := 0; act < tbl.Actions(); act++ {
				if math.IsNaN(tbl.Get(s, act)) {
					continue states
				}
			}
			if want, _ := tbl.Best(s); a.Greedy(s) != want {
				t.Fatalf("agent %d state %d: Greedy = %d, Table.Best = %d", i, s, a.Greedy(s), want)
			}
		}
	}
}
