package baselines

import (
	"math"
	"testing"

	"repro/internal/ctrl"
	"repro/internal/manycore"
	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/vf"
)

func predictor(t *testing.T) ctrl.Predictor {
	t.Helper()
	p, err := ctrl.NewPredictor(vf.Default(), power.Default())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// tel builds a telemetry frame; mbs/pws/ipss are per-core or broadcast from
// a single value.
func tel(cores, level int, pw, ips, mb float64) *manycore.Telemetry {
	tbl := vf.Default()
	op := tbl.Point(level)
	out := &manycore.Telemetry{EpochS: 1e-3, Cores: make([]manycore.CoreTelemetry, cores)}
	total := power.Default().UncoreW
	for i := range out.Cores {
		out.Cores[i] = manycore.CoreTelemetry{
			Level: level, FreqHz: op.FreqHz, VoltageV: op.VoltageV,
			IPS: ips, PowerW: pw, MemBoundedness: mb, TempK: 330,
		}
		total += pw
	}
	out.ChipPowerW = total
	out.TruePowerW = total
	return out
}

func mesh(t *testing.T) *noc.Mesh {
	t.Helper()
	m, err := noc.New(4, 4, noc.Default())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// ---------- MaxBIPS ----------

func TestMaxBIPSValidation(t *testing.T) {
	p := predictor(t)
	if _, err := NewMaxBIPS(p, 0, 0.1); err == nil {
		t.Fatal("expected error for zero cadence")
	}
	if _, err := NewMaxBIPS(p, 1, 0); err == nil {
		t.Fatal("expected error for zero resolution")
	}
}

func TestMaxBIPSRespectsBudgetUnderOwnPredictions(t *testing.T) {
	p := predictor(t)
	m, err := NewMaxBIPS(p, 1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	frame := tel(16, 3, 1.2, 2e9, 0.3)
	out := make([]int, 16)
	for _, budget := range []float64{20, 40, 60, 100} {
		m.Decide(frame, budget, out)
		predicted := p.Power.UncoreW
		for i, l := range out {
			predicted += p.PowerAt(frame.Cores[i], l)
		}
		if predicted > budget+1e-9 {
			t.Fatalf("budget %v: predicted power %v exceeds it", budget, predicted)
		}
	}
}

func TestMaxBIPSMatchesBruteForceOnSmallInstance(t *testing.T) {
	p := predictor(t)
	m, err := NewMaxBIPS(p, 1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	// Three cores with different mem-boundedness.
	frame := tel(3, 3, 1.2, 2e9, 0)
	frame.Cores[1].MemBoundedness = 0.5
	frame.Cores[2].MemBoundedness = 0.9
	const budget = 12.0
	out := make([]int, 3)
	m.Decide(frame, budget, out)

	gotBIPS := 0.0
	for i, l := range out {
		gotBIPS += p.IPSAt(frame.Cores[i], l)
	}

	// Brute force over all level assignments with the same conservative
	// power quantisation the DP uses.
	L := p.VF.Levels()
	cost := func(i, l int) float64 {
		return math.Ceil(p.PowerAt(frame.Cores[i], l)/0.01) * 0.01
	}
	best := -1.0
	for a := 0; a < L; a++ {
		for b := 0; b < L; b++ {
			for c := 0; c < L; c++ {
				pw := p.Power.UncoreW + cost(0, a) + cost(1, b) + cost(2, c)
				if pw > budget {
					continue
				}
				v := p.IPSAt(frame.Cores[0], a) + p.IPSAt(frame.Cores[1], b) + p.IPSAt(frame.Cores[2], c)
				if v > best {
					best = v
				}
			}
		}
	}
	if best < 0 {
		t.Fatal("brute force found no feasible assignment; test misconfigured")
	}
	if math.Abs(gotBIPS-best)/best > 1e-9 {
		t.Fatalf("DP throughput %v, brute-force optimum %v", gotBIPS, best)
	}
}

func TestMaxBIPSInfeasibleBudget(t *testing.T) {
	p := predictor(t)
	m, _ := NewMaxBIPS(p, 1, 0.05)
	frame := tel(16, 3, 1.2, 2e9, 0.3)
	out := make([]int, 16)
	m.Decide(frame, 1.0, out) // below the uncore floor
	for i, l := range out {
		if l != 0 {
			t.Fatalf("core %d at level %d under infeasible budget, want 0", i, l)
		}
	}
}

func TestMaxBIPSCadenceHoldsDecision(t *testing.T) {
	p := predictor(t)
	m, _ := NewMaxBIPS(p, 5, 0.05)
	frameA := tel(8, 3, 1.2, 2e9, 0.3)
	out := make([]int, 8)
	m.Decide(frameA, 60, out)
	first := append([]int(nil), out...)

	// Radically different telemetry mid-cadence must be ignored.
	frameB := tel(8, 3, 3.0, 1e9, 0.9)
	for e := 1; e < 5; e++ {
		m.Decide(frameB, 60, out)
		for i := range out {
			if out[i] != first[i] {
				t.Fatalf("epoch %d: decision changed mid-cadence", e)
			}
		}
	}
	// Epoch 5 recomputes.
	m.Decide(frameB, 20, out)
	same := true
	for i := range out {
		if out[i] != first[i] {
			same = false
		}
	}
	if same {
		t.Fatal("decision did not update at the cadence boundary")
	}
}

// TestMaxBIPSNominalWorkCountsFullGrid: each solve counts Isci et al.'s
// full grid, cores × (buckets+1) × levels, whatever the windowed DP
// visits; held epochs and a budget under the uncore floor count nothing.
func TestMaxBIPSNominalWorkCountsFullGrid(t *testing.T) {
	p := predictor(t)
	m, _ := NewMaxBIPS(p, 5, 0.05)
	frame := tel(8, 3, 1.2, 2e9, 0.3)
	out := make([]int, 8)
	budget := p.Power.UncoreW + 10 // 200 buckets
	for e := 0; e < 10; e++ {
		m.Decide(frame, budget, out)
	}
	buckets := int((budget - p.Power.UncoreW) / 0.05)
	if got, want := m.NominalWork(), uint64(2*8*(buckets+1)*p.VF.Levels()); got != want {
		t.Fatalf("work after two solves = %d, want %d", got, want)
	}
	m.Decide(frame, p.Power.UncoreW-1, out)
	if got, want := m.NominalWork(), uint64(2*8*(buckets+1)*p.VF.Levels()); got != want {
		t.Fatalf("solve under the uncore floor counted %d work", got-want)
	}
}

func TestMaxBIPSPrefersComputeBoundCores(t *testing.T) {
	p := predictor(t)
	m, _ := NewMaxBIPS(p, 1, 0.02)
	frame := tel(2, 3, 1.5, 2e9, 0)
	frame.Cores[1].MemBoundedness = 0.95
	out := make([]int, 2)
	// Budget allows roughly one fast and one slow core.
	m.Decide(frame, 9, out)
	if out[0] <= out[1] {
		t.Fatalf("compute-bound core at level %d, memory-bound at %d; want compute higher", out[0], out[1])
	}
}

// ---------- SteepestDrop ----------

func TestSteepestDropValidation(t *testing.T) {
	if _, err := NewSteepestDrop(predictor(t), 0); err == nil {
		t.Fatal("expected error for zero cadence")
	}
}

func TestSteepestDropRespectsBudgetWhenFeasible(t *testing.T) {
	p := predictor(t)
	s, err := NewSteepestDrop(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	frame := tel(16, 3, 1.2, 2e9, 0.3)
	out := make([]int, 16)
	for _, budget := range []float64{25, 40, 60, 120} {
		s.Decide(frame, budget, out)
		predicted := p.Power.UncoreW
		for i, l := range out {
			predicted += p.PowerAt(frame.Cores[i], l)
		}
		floor := p.Power.UncoreW
		for i := range out {
			floor += p.PowerAt(frame.Cores[i], 0)
		}
		if floor <= budget && predicted > budget+1e-9 {
			t.Fatalf("budget %v: predicted %v exceeds it (floor %v)", budget, predicted, floor)
		}
	}
}

func TestSteepestDropUnlimitedBudgetAllTop(t *testing.T) {
	p := predictor(t)
	s, _ := NewSteepestDrop(p, 1)
	frame := tel(8, 3, 1.2, 2e9, 0.3)
	out := make([]int, 8)
	s.Decide(frame, 1e6, out)
	top := p.VF.Levels() - 1
	for i, l := range out {
		if l != top {
			t.Fatalf("core %d at %d under unlimited budget, want top %d", i, l, top)
		}
	}
}

func TestSteepestDropDemotesMemoryBoundFirst(t *testing.T) {
	p := predictor(t)
	s, _ := NewSteepestDrop(p, 1)
	frame := tel(2, 3, 1.5, 2e9, 0)
	frame.Cores[1].MemBoundedness = 0.95
	out := make([]int, 2)
	s.Decide(frame, 9, out)
	if out[0] <= out[1] {
		t.Fatalf("memory-bound core should be demoted first: got levels %v", out)
	}
}

// ---------- PID ----------

func TestPIDValidation(t *testing.T) {
	if _, err := NewPID(nil, 1, 1, 0); err == nil {
		t.Fatal("expected error for nil table")
	}
	if _, err := NewPID(vf.Default(), -1, 0, 0); err == nil {
		t.Fatal("expected error for negative gain")
	}
}

func TestPIDUniformOutput(t *testing.T) {
	p := DefaultPID(vf.Default())
	out := make([]int, 8)
	p.Decide(tel(8, 3, 2, 2e9, 0.3), 40, out)
	for i := 1; i < len(out); i++ {
		if out[i] != out[0] {
			t.Fatal("PID must command one uniform level")
		}
	}
}

func TestPIDDirection(t *testing.T) {
	p := DefaultPID(vf.Default())
	out := make([]int, 4)
	over := tel(4, 3, 10, 2e9, 0.3) // way over any small budget
	var seq []int
	for e := 0; e < 10; e++ {
		p.Decide(over, 20, out)
		seq = append(seq, out[0])
	}
	if seq[len(seq)-1] >= seq[0] {
		t.Fatalf("PID did not throttle under sustained overshoot: %v", seq)
	}

	p2 := DefaultPID(vf.Default())
	under := tel(4, 1, 0.2, 1e9, 0.3) // far under budget
	seq = nil
	for e := 0; e < 10; e++ {
		p2.Decide(under, 100, out)
		seq = append(seq, out[0])
	}
	if seq[len(seq)-1] <= seq[0] {
		t.Fatalf("PID did not raise levels under sustained headroom: %v", seq)
	}
}

func TestPIDClampsToLevelRange(t *testing.T) {
	p := DefaultPID(vf.Default())
	out := make([]int, 2)
	for e := 0; e < 100; e++ {
		p.Decide(tel(2, 0, 50, 1e9, 0.3), 5, out) // hopeless overshoot forever
		if out[0] < 0 || out[0] >= vf.Default().Levels() {
			t.Fatalf("PID emitted out-of-range level %d", out[0])
		}
	}
	if out[0] != 0 {
		t.Fatal("sustained overshoot should pin PID to the bottom level")
	}
}

// ---------- Static ----------

func TestStaticValidation(t *testing.T) {
	if _, err := NewStatic(nil, power.Default(), 360); err == nil {
		t.Fatal("expected error for nil table")
	}
	if _, err := NewStatic(vf.Default(), power.Default(), 0); err == nil {
		t.Fatal("expected error for zero hot temperature")
	}
}

func TestStaticWorstCaseFitsBudget(t *testing.T) {
	pp := power.Default()
	s, err := NewStatic(vf.Default(), pp, 360)
	if err != nil {
		t.Fatal(err)
	}
	frame := tel(16, 0, 0.5, 1e9, 0.2)
	out := make([]int, 16)
	s.Decide(frame, 40, out)
	lvl := out[0]
	op := vf.Default().Point(lvl)
	worst := pp.UncoreW + 16*pp.CoreW(op.VoltageV, op.FreqHz, 1.0, 360)
	if worst > 40 {
		t.Fatalf("static level %d has worst-case power %v > budget 40", lvl, worst)
	}
	// And the next level up must not fit (maximality), unless at top.
	if lvl < vf.Default().Levels()-1 {
		opUp := vf.Default().Point(lvl + 1)
		worstUp := pp.UncoreW + 16*pp.CoreW(opUp.VoltageV, opUp.FreqHz, 1.0, 360)
		if worstUp <= 40 {
			t.Fatalf("static level %d is not maximal", lvl)
		}
	}
}

func TestStaticRecomputesOnCapChange(t *testing.T) {
	s, _ := NewStatic(vf.Default(), power.Default(), 360)
	frame := tel(16, 0, 0.5, 1e9, 0.2)
	out := make([]int, 16)
	s.Decide(frame, 150, out)
	high := out[0]
	s.Decide(frame, 30, out)
	low := out[0]
	if low >= high {
		t.Fatalf("cap drop 150→30 W did not lower the design point (%d → %d)", high, low)
	}
}

// ---------- Greedy ----------

func TestGreedyValidation(t *testing.T) {
	if _, err := NewGreedy(nil, power.Default()); err == nil {
		t.Fatal("expected error for nil table")
	}
}

func TestGreedyStepsTowardShare(t *testing.T) {
	g, err := NewGreedy(vf.Default(), power.Default())
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int, 2)
	// Share = (20.5-4)/2 W each ≈ 8.2 W.
	frame := tel(2, 4, 1.0, 2e9, 0.1)
	frame.Cores[0].PowerW = 12.0 // over share → down
	frame.Cores[1].PowerW = 1.0  // far under, compute-bound → up
	g.Decide(frame, 20.5, out)
	if out[0] != 3 {
		t.Fatalf("over-share core level = %d, want 3", out[0])
	}
	if out[1] != 5 {
		t.Fatalf("under-share core level = %d, want 5", out[1])
	}
}

func TestGreedyHoldsMemoryBound(t *testing.T) {
	g, _ := NewGreedy(vf.Default(), power.Default())
	out := make([]int, 1)
	frame := tel(1, 4, 0.5, 1e9, 0.9) // under share but memory-bound
	g.Decide(frame, 30, out)
	if out[0] != 4 {
		t.Fatalf("memory-bound core moved to %d, want hold at 4", out[0])
	}
}

func TestGreedyInfeasibleBudget(t *testing.T) {
	g, _ := NewGreedy(vf.Default(), power.Default())
	out := make([]int, 4)
	g.Decide(tel(4, 4, 1, 1e9, 0.1), 2, out) // below uncore
	for _, l := range out {
		if l != 0 {
			t.Fatal("infeasible budget must pin to bottom")
		}
	}
}

// ---------- Interface conformance and comm costs ----------

func TestAllImplementController(t *testing.T) {
	p := predictor(t)
	mb, _ := NewMaxBIPS(p, 10, 0.1)
	sd, _ := NewSteepestDrop(p, 10)
	st, _ := NewStatic(vf.Default(), power.Default(), 360)
	gr, _ := NewGreedy(vf.Default(), power.Default())
	controllers := []ctrl.Controller{mb, sd, DefaultPID(vf.Default()), st, gr}
	names := map[string]bool{}
	m := mesh(t)
	for _, c := range controllers {
		if c.Name() == "" {
			t.Fatal("empty controller name")
		}
		if names[c.Name()] {
			t.Fatalf("duplicate controller name %q", c.Name())
		}
		names[c.Name()] = true
		cost := c.CommPerEpoch(m)
		if cost.LatencyS < 0 || cost.EnergyJ < 0 {
			t.Fatalf("%s: negative comm cost", c.Name())
		}
	}
}

func TestCentralizedCommExceedsStatic(t *testing.T) {
	p := predictor(t)
	m := mesh(t)
	mbips, _ := NewMaxBIPS(p, 1, 0.1)
	st, _ := NewStatic(vf.Default(), power.Default(), 360)
	if mbips.CommPerEpoch(m).EnergyJ <= st.CommPerEpoch(m).EnergyJ {
		t.Fatal("per-epoch centralized traffic must exceed static's zero")
	}
}
