package rl

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// solo drives agent 0 of a one-agent fleet through single Begin and Step
// calls, the way a lone learner is driven.
type solo struct {
	*Fleet
	state  [1]int32
	reward [1]float64
	out    [1]int
}

func newSolo(t testing.TB, cfg Config, seed uint64) *solo {
	t.Helper()
	f, err := NewFleet(cfg, 1, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return &solo{Fleet: f}
}

func (a *solo) Begin(s int) int {
	a.state[0] = int32(s)
	a.Fleet.Begin(0, 1, a.state[:], a.out[:])
	return a.out[0]
}

func (a *solo) Step(reward float64, s int) int {
	a.state[0], a.reward[0] = int32(s), reward
	a.Fleet.Step(0, 1, a.state[:], a.reward[:], a.out[:])
	return a.out[0]
}

// Q returns Q(s, act) of agent 0.
func (a *solo) Q(s, act int) float64 { return a.q[s*a.cfg.Actions+act] }

// byteStream reads a fuzz input as a sequence of small choices; an
// exhausted stream answers 0 and reports done.
type byteStream struct {
	b []byte
}

func (s *byteStream) done() bool { return len(s.b) == 0 }

func (s *byteStream) intn(n int) int {
	if len(s.b) == 0 {
		return 0
	}
	v := int(s.b[0]) % n
	s.b = s.b[1:]
	return v
}

// pick returns one of vs.
func pick[T any](s *byteStream, vs ...T) T { return vs[s.intn(len(vs))] }

// values are the rewards and loaded Q values the differential drive uses:
// dyadic, so with the dyadic step sizes below exact ties recur and
// exercise the lowest-index tie-break; 1e308 overflows an update to ±Inf
// and then NaN, the paths where a greedy value falls and its row is
// rescanned.
var values = []float64{-1, -0.5, 0, 0.25, 0.5, 1, 2, 1e308, -1e308}

// fleetDiff drives a Fleet and one reference agent per fleet agent
// through the same operations and requires them to agree bit for bit.
type fleetDiff struct {
	t    *testing.T
	cfg  Config
	f    *Fleet
	refs []*refAgent
	// per-agent inputs and outputs, reused
	states  []int32
	rewards []float64
	out     []int
	begun   []bool
}

func newFleetDiff(t *testing.T, s *byteStream) *fleetDiff {
	cfg := Config{
		States:       1 + s.intn(9),
		Actions:      1 + s.intn(5),
		Alpha:        pick(s, 0.5, 1.0, 0.15),
		Gamma:        pick(s, 0.5, 0.0, 0.8),
		Algorithm:    pick(s, QLearning, SARSA),
		EpsilonStart: pick(s, 0.3, 1.0, 0.0),
		InitialQ:     pick(s, 0.0, 1.0, 2.0),
	}
	cfg.EpsilonEnd = cfg.EpsilonStart * pick(s, 1.0, 0.5, 0.0)
	cfg.EpsilonDecay = pick(s, 1.0, 0.9, 0.999)
	n := 1 + s.intn(6)
	seed := uint64(1 + s.intn(256))
	f, err := NewFleet(cfg, n, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	d := &fleetDiff{
		t: t, cfg: cfg, f: f,
		states:  make([]int32, n),
		rewards: make([]float64, n),
		out:     make([]int, n),
		begun:   make([]bool, n),
	}
	base := rng.New(seed)
	for i := 0; i < n; i++ {
		d.refs = append(d.refs, newRefAgent(cfg, base.Split()))
	}
	return d
}

// ranges splits [0, n) into one to three ranges and returns them in an
// order the stream picks: agents are independent, so neither the split
// nor the order may change a result.
func (d *fleetDiff) ranges(s *byteStream) [][2]int {
	n := len(d.refs)
	a, b := s.intn(n+1), s.intn(n+1)
	if a > b {
		a, b = b, a
	}
	rs := [][2]int{{0, a}, {a, b}, {b, n}}
	if s.intn(2) == 1 {
		rs[0], rs[2] = rs[2], rs[0]
	}
	return rs
}

// drawStates picks each agent's state; masked agents get -1 and sit the
// call out. only limits the live agents to those that have begun.
func (d *fleetDiff) drawStates(s *byteStream, only []bool) {
	for i := range d.states {
		d.states[i] = int32(s.intn(d.cfg.States))
		if s.intn(5) == 0 || only != nil && !only[i] {
			d.states[i] = -1
		}
		d.rewards[i] = pick(s, values...)
		d.out[i] = -7
	}
}

// checkOut compares the fleet's actions with the reference's, and requires
// a masked agent's slot to be left alone.
func (d *fleetDiff) checkOut(op string, want []int) {
	d.t.Helper()
	for i, got := range d.out {
		if got != want[i] {
			d.t.Fatalf("%s: agent %d acted %d, reference %d", op, i, got, want[i])
		}
	}
}

func (d *fleetDiff) begin(s *byteStream) {
	d.drawStates(s, nil)
	want := make([]int, len(d.refs))
	for i, a := range d.refs {
		want[i] = -7
		if st := d.states[i]; st >= 0 {
			want[i] = a.begin(int(st))
			d.begun[i] = true
		}
	}
	for _, r := range d.ranges(s) {
		d.f.Begin(r[0], r[1], d.states, d.out)
	}
	d.checkOut("Begin", want)
}

func (d *fleetDiff) step(s *byteStream) {
	d.drawStates(s, d.begun)
	if s.intn(2) == 1 {
		// Warm the memo as the controller does, skipping some agents, so
		// hits, misses and full slots all occur.
		skip := make([]bool, len(d.refs))
		for i := range skip {
			skip[i] = s.intn(3) == 0
		}
		d.f.WarmEpsilon(skip)
	}
	want := make([]int, len(d.refs))
	for i, a := range d.refs {
		want[i] = -7
		if st := d.states[i]; st >= 0 {
			want[i] = a.step(d.rewards[i], int(st))
		}
	}
	for _, r := range d.ranges(s) {
		d.f.Step(r[0], r[1], d.states, d.rewards, d.out)
	}
	d.checkOut("Step", want)
}

// load replaces every table with drawn values, through LoadPolicy on the
// fleet and a dirty-marking copy on each reference agent.
func (d *fleetDiff) load(s *byteStream) {
	per := d.cfg.States * d.cfg.Actions
	q := make([]float64, len(d.refs)*per)
	for k := range q {
		q[k] = pick(s, values[:7]...)
	}
	if err := d.f.LoadPolicy(q); err != nil {
		d.t.Fatal(err)
	}
	for i, a := range d.refs {
		a.table.copyFrom(q[i*per : (i+1)*per])
	}
}

// check compares every agent's values, greedy index, step count, ε and
// probes.
func (d *fleetDiff) check(op string) {
	d.t.Helper()
	cfg := d.cfg
	q := make([]float64, len(d.refs)*cfg.States*cfg.Actions)
	if err := d.f.CopyPolicy(q); err != nil {
		d.t.Fatal(err)
	}
	for i, a := range d.refs {
		for st := 0; st < cfg.States; st++ {
			for act := 0; act < cfg.Actions; act++ {
				got := q[(i*cfg.States+st)*cfg.Actions+act]
				if want := a.table.get(st, act); math.Float64bits(got) != math.Float64bits(want) {
					d.t.Fatalf("after %s: agent %d Q(%d,%d) = %v, reference %v", op, i, st, act, got, want)
				}
			}
			if got, want := d.f.Greedy(i, st), a.greedyAt(st); got != want {
				d.t.Fatalf("after %s: agent %d greedy(%d) = %d, reference %d", op, i, st, got, want)
			}
		}
		if got, want := d.f.Steps(i), a.steps; got != want {
			d.t.Fatalf("after %s: agent %d at step %d, reference %d", op, i, got, want)
		}
		if got, want := d.f.Epsilon(i), a.epsilon(); math.Float64bits(got) != math.Float64bits(want) {
			d.t.Fatalf("after %s: agent %d ε %v, reference %v", op, i, got, want)
		}
		got, want := d.f.Probe(i), a.lastProbe()
		if math.Float64bits(got.TDError) != math.Float64bits(want.TDError) ||
			math.Float64bits(got.QSpread) != math.Float64bits(want.QSpread) ||
			got.GreedyChanged != want.GreedyChanged || got.ActedGreedy != want.ActedGreedy {
			d.t.Fatalf("after %s: agent %d probe %+v, reference %+v", op, i, got, want)
		}
		if got, want := d.f.VisitedStates(i), a.visitedCount; got != want {
			d.t.Fatalf("after %s: agent %d visited %d states, reference %d", op, i, got, want)
		}
	}
}

// run drives the fleet and its reference through the operations the
// stream encodes: the first Begin, then steps mixed with restarts,
// policy loads, a mid-run introspection enable and flip reads.
func (d *fleetDiff) run(s *byteStream) {
	d.begin(s)
	d.check("Begin")
	for !s.done() {
		op := "Step"
		switch s.intn(16) {
		case 0:
			op = "restart"
			d.begin(s)
		case 1:
			op = "LoadPolicy"
			d.load(s)
		case 2:
			op = "EnableIntrospection"
			d.f.EnableIntrospection()
			for _, a := range d.refs {
				a.enableIntrospection()
			}
		case 3:
			op = "TakeFlips"
			for i, a := range d.refs {
				if got, want := d.f.TakeFlips(i), a.takeFlips(); got != want {
					d.t.Fatalf("agent %d took %d flips, reference %d", i, got, want)
				}
			}
		default:
			d.step(s)
		}
		d.check(op)
	}
}

// TestFleetMatchesReference is the differential oracle of the fleet: on
// random streams of states and rewards (Q-learning and SARSA, exploration
// on, tied Q rows, introspection enabled mid-run, policy loads followed by
// the greedy rebuild, agents masked out and ranges stepped in any order)
// its Q values, greedy index, actions, step counts, ε and probes must
// equal those of one pre-fleet per-agent learner per agent, bit for bit.
func TestFleetMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		r := rng.New(seed)
		b := make([]byte, 1500)
		for i := range b {
			b[i] = byte(r.Uint64())
		}
		s := &byteStream{b}
		newFleetDiff(t, s).run(s)
	}
}

// FuzzFleetMatchesReference is TestFleetMatchesReference on fuzzed
// operation streams.
func FuzzFleetMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 3, 0, 1, 0, 0, 0, 0, 1, 3, 7})
	r := rng.New(1)
	for k := 0; k < 4; k++ {
		b := make([]byte, 200)
		for i := range b {
			b[i] = byte(r.Uint64())
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &byteStream{data}
		newFleetDiff(t, s).run(s)
	})
}
