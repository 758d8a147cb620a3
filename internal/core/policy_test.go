package core

import (
	"bytes"
	"crypto/sha256"
	"io"
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
	want, got := policyOf(t, src), policyOf(t, dst)
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("policy value %d differs after restore", k)
		}
	}
}

// TestLoadPolicyRejectsMismatches: every input LoadPolicy refuses gets an
// error naming the reason, and none is read past one byte beyond a full
// snapshot of the controller's shape.
func TestLoadPolicyRejectsMismatches(t *testing.T) {
	src := newController(t, 4, Config{})
	_, saved := savedPolicy(t, src)
	cores, states, actions := src.PolicyShape()
	limit := rl.FullSnapshotLen(cores, states, actions) + 1

	cases := refusedPolicies(t, src)
	cases = append(cases,
		// Trailing data the reader must not drain.
		refusedPolicy{"megabyte trailer", append(append([]byte(nil), saved...), make([]byte, 1<<20)...), "trailing data"},
		refusedPolicy{"empty", nil, "too short"},
	)
	for _, tc := range cases {
		dst := newController(t, 4, Config{})
		r := &countingReader{r: bytes.NewReader(tc.data)}
		err := dst.LoadPolicy(r)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
		if r.n > limit {
			t.Errorf("%s: read %d bytes, limit %d", tc.name, r.n, limit)
		}
	}

	// Controllers of another shape refuse a real saved policy: more cores
	// (a shorter file) and fewer states (a longer one).
	if err := newController(t, 8, Config{}).LoadPolicy(bytes.NewReader(saved)); err == nil || !strings.Contains(err.Error(), "cores") {
		t.Errorf("8-core controller: error %v, want a core-count mismatch", err)
	}
	if err := newController(t, 4, Config{HeadroomBuckets: 3}).LoadPolicy(bytes.NewReader(saved)); err == nil {
		t.Error("controller with fewer states accepted the policy")
	}

	// Function approximation has no tables to load into and reads nothing.
	r := &countingReader{r: bytes.NewReader(saved)}
	if err := newController(t, 4, Config{FunctionApprox: true}).LoadPolicy(r); err == nil || !strings.Contains(err.Error(), "tabular-only") {
		t.Errorf("FA controller: error %v, want tabular-only", err)
	}
	if r.n != 0 {
		t.Errorf("FA controller read %d bytes", r.n)
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
		// nextState holds the state each core observed this epoch.
		if warmOut[i] != warm.fleet.Greedy(i, int(warm.nextState[i])) {
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

// policyOf returns c's policy tensor, as CopyPolicy exports it.
func policyOf(t testing.TB, c *Controller) []float64 {
	t.Helper()
	cores, states, actions := c.PolicyShape()
	q := make([]float64, cores*states*actions)
	if err := c.CopyPolicy(q); err != nil {
		t.Fatal(err)
	}
	return q
}

// agentState is every agent's Q-values (as bits, so NaN compares) and
// greedy action per state: what a refused LoadPolicy must leave alone.
func agentState(t testing.TB, c *Controller) [][]uint64 {
	t.Helper()
	q := policyOf(t, c)
	cores, states, actions := c.PolicyShape()
	out := make([][]uint64, cores)
	for i := range out {
		row := make([]uint64, 0, states*(actions+1))
		for s := 0; s < states; s++ {
			for act := 0; act < actions; act++ {
				row = append(row, math.Float64bits(q[(i*states+s)*actions+act]))
			}
			row = append(row, uint64(c.fleet.Greedy(i, s)))
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

// savedPolicy returns src's saved policy, decoded and as written.
func savedPolicy(t testing.TB, src *Controller) (*rl.Snapshot, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := src.SavePolicy(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := rl.DecodeSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return s, buf.Bytes()
}

// refusedPolicy is an input LoadPolicy must refuse, and a substring of
// the error it must give.
type refusedPolicy struct {
	name string
	data []byte
	want string
}

// refusedPolicies returns one input per refusal LoadPolicy makes of a
// policy for src's shape (two cores or more), each unlike src's saved
// policy in one way. The shape mismatches in cores and in states keep the
// tensor's size, so only the header check can refuse them; the NaN sits in
// the last core's table, so only a check of every table before any copy
// leaves the first agents alone.
func refusedPolicies(t testing.TB, src *Controller) []refusedPolicy {
	t.Helper()
	s, saved := savedPolicy(t, src)
	// with re-encodes a copy of the saved snapshot after edit.
	with := func(edit func(c *rl.Snapshot)) []byte {
		c := *s
		c.Q = append([]float64(nil), s.Q...)
		edit(&c)
		return c.Encode()
	}
	delta := rl.Snapshot{
		Epoch: s.Epoch + 1, Cores: s.Cores, States: s.States, Actions: s.Actions,
		Delta: true, Parent: sha256.Sum256(saved), Indices: []uint32{0}, Values: []float64{1},
	}
	last := len(s.Q) - 1
	return []refusedPolicy{
		{"trailing byte", append(append([]byte(nil), saved...), 0), "trailing data"},
		{"truncated", saved[:len(saved)-1], "full payload"},
		{"old JSON policy", []byte(`{"version":1,"cores":4,"states":1,"actions":2,"tables":[{"states":1,"actions":2,"q":[0,0]}]}`), "bad snapshot magic"},
		{"delta", delta.Encode(), "delta snapshot"},
		{"cores", with(func(c *rl.Snapshot) { c.Cores, c.States = 1, c.States*c.Cores }), "cores"},
		{"states", with(func(c *rl.Snapshot) { c.States, c.Actions = c.States*2, c.Actions/2 }), "shape"},
		{"actions", with(func(c *rl.Snapshot) {
			c.Actions--
			c.Q = c.Q[:c.Cores*c.States*c.Actions]
		}), "shape"},
		{"NaN", with(func(c *rl.Snapshot) { c.Q[last] = math.NaN() }), "NaN"},
		{"+Inf", with(func(c *rl.Snapshot) { c.Q[last] = math.Inf(1) }), "+Inf"},
		{"-Inf", with(func(c *rl.Snapshot) { c.Q[last] = math.Inf(-1) }), "-Inf"},
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
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

// TestLoadPolicyIsAtomic: every refused policy, the one refused on its
// last table included, leaves every agent's values and greedy index as
// they were.
func TestLoadPolicyIsAtomic(t *testing.T) {
	src := trainedController(t, 4, Config{Seed: 5})
	dst := trainedController(t, 4, Config{Seed: 99})
	before := agentState(t, dst)
	for _, tc := range refusedPolicies(t, src) {
		if err := dst.LoadPolicy(bytes.NewReader(tc.data)); err == nil {
			t.Fatalf("%s: refused policy accepted", tc.name)
		}
		if !sameAgentState(before, agentState(t, dst)) {
			t.Fatalf("%s: refused policy changed the controller's agents", tc.name)
		}
	}
}

// FuzzLoadPolicy: the policy decoder reads files (the warm-start example),
// so arbitrary bytes must never panic it. A refused policy changes no
// agent; an accepted one leaves every agent's greedy index equal to a
// full row scan, both right after the load and after the controller has
// learned from it.
func FuzzLoadPolicy(f *testing.F) {
	// One headroom and one memory bucket keep a saved policy to a few KB,
	// small enough for the fuzzer to mutate and minimise quickly.
	small := func(seed uint64) Config { return Config{Seed: seed, HeadroomBuckets: 1, MemBuckets: 1} }
	src := trainedController(f, 3, small(5))
	_, saved := savedPolicy(f, src)
	f.Add(saved)
	for _, tc := range refusedPolicies(f, src) {
		switch tc.name {
		case "delta", "NaN", "truncated", "trailing byte":
			f.Add(tc.data)
		}
	}

	tel := fakeTel(3, 2, 0.7, 0.3)
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := New(3, vf.Default(), power.Default(), small(99))
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int, 3)
		c.Decide(tel, 30, out)
		before := agentState(t, c)
		if err := c.LoadPolicy(bytes.NewReader(data)); err != nil {
			if !sameAgentState(before, agentState(t, c)) {
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
// scan (highest value, lowest index on ties). A row holding NaN is
// skipped: the scan's answer then depends on where the NaN sits, and only
// a policy whose values overflow the update arithmetic produces one.
func checkGreedyIndex(t *testing.T, c *Controller) {
	t.Helper()
	q := policyOf(t, c)
	cores, states, actions := c.PolicyShape()
	for i := 0; i < cores; i++ {
	states:
		for s := 0; s < states; s++ {
			row := q[(i*states+s)*actions:][:actions]
			want := 0
			for act, v := range row {
				if math.IsNaN(v) {
					continue states
				}
				if v > row[want] {
					want = act
				}
			}
			if got := c.fleet.Greedy(i, s); got != want {
				t.Fatalf("agent %d state %d: Greedy = %d, row scan = %d", i, s, got, want)
			}
		}
	}
}
