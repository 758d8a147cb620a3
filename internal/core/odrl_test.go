package core

import (
	"math"
	"testing"

	"repro/internal/manycore"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/vf"
)

func newController(t *testing.T, cores int, cfg Config) *Controller {
	t.Helper()
	c, err := New(cores, vf.Default(), power.Default(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// fakeTel builds a telemetry frame where every core sits at the given level
// drawing pw watts with the given memory-boundedness.
func fakeTel(cores, level int, pw, mb float64) *manycore.Telemetry {
	tbl := vf.Default()
	op := tbl.Point(level)
	tel := &manycore.Telemetry{
		EpochS: 1e-3,
		Cores:  make([]manycore.CoreTelemetry, cores),
	}
	total := power.Default().UncoreW
	for i := range tel.Cores {
		tel.Cores[i] = manycore.CoreTelemetry{
			Level:          level,
			FreqHz:         op.FreqHz,
			VoltageV:       op.VoltageV,
			IPS:            op.FreqHz / 1.0,
			PowerW:         pw,
			MemBoundedness: mb,
			TempK:          330,
		}
		total += pw
	}
	tel.ChipPowerW = total
	tel.TruePowerW = total
	return tel
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, vf.Default(), power.Default(), Config{}); err == nil {
		t.Fatal("expected error for zero cores")
	}
	if _, err := New(4, nil, power.Default(), Config{}); err == nil {
		t.Fatal("expected error for nil table")
	}
	bad := power.Default()
	bad.CeffF = 0
	if _, err := New(4, vf.Default(), bad, Config{}); err == nil {
		t.Fatal("expected error for bad power params")
	}
	if _, err := New(4, vf.Default(), power.Default(), Config{Lambda: -1}); err == nil {
		t.Fatal("expected error for negative lambda")
	}
	if _, err := New(4, vf.Default(), power.Default(), Config{FineEpochsPerRealloc: -2}); err == nil {
		t.Fatal("expected error for negative cadence")
	}
	if _, err := New(4, vf.Default(), power.Default(), Config{ReallocMargin: 1.5}); err == nil {
		t.Fatal("expected error for margin >= 1")
	}
	if _, err := New(4, vf.Default(), power.Default(), Config{HarvestFraction: 2}); err == nil {
		t.Fatal("expected error for harvest fraction > 1")
	}
}

func TestName(t *testing.T) {
	if got := newController(t, 4, Config{}).Name(); got != "od-rl" {
		t.Fatalf("Name = %q", got)
	}
	if got := newController(t, 4, Config{DisableRealloc: true}).Name(); got != "od-rl-norealloc" {
		t.Fatalf("ablation Name = %q", got)
	}
}

func TestDecideFillsValidLevels(t *testing.T) {
	c := newController(t, 16, Config{})
	out := make([]int, 16)
	tel := fakeTel(16, 3, 1.0, 0.3)
	for e := 0; e < 50; e++ {
		c.Decide(tel, 60, out)
		for i, l := range out {
			if l < 0 || l >= vf.Default().Levels() {
				t.Fatalf("epoch %d core %d: level %d out of range", e, i, l)
			}
		}
	}
}

func TestDecidePanicsOnSizeMismatch(t *testing.T) {
	c := newController(t, 4, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Decide(fakeTel(4, 0, 1, 0), 60, make([]int, 3))
}

func TestInitialBudgetsEqualSplit(t *testing.T) {
	c := newController(t, 8, Config{DisableRealloc: true})
	out := make([]int, 8)
	c.Decide(fakeTel(8, 0, 0.5, 0.2), 60, out)
	budgets := c.Budgets()
	want := (60 - power.Default().UncoreW) / 8
	for i, b := range budgets {
		if math.Abs(b-want) > 1e-9 {
			t.Fatalf("core %d budget = %v, want %v", i, b, want)
		}
	}
}

func TestBudgetInvariantAfterRealloc(t *testing.T) {
	cfg := Config{FineEpochsPerRealloc: 5}
	c := newController(t, 8, cfg)
	out := make([]int, 8)
	// Uneven consumption: four cores draw heavily, four barely.
	tel := fakeTel(8, 3, 0.2, 0.1)
	for i := 4; i < 8; i++ {
		tel.Cores[i].PowerW = 6.0
	}
	const chipBudget = 40.0
	for e := 0; e < 50; e++ {
		c.Decide(tel, chipBudget, out)
	}
	budgets := c.Budgets()
	sum := 0.0
	for _, b := range budgets {
		sum += b
	}
	want := chipBudget - power.Default().UncoreW
	if math.Abs(sum-want)/want > 1e-9 {
		t.Fatalf("budget sum = %v, want %v", sum, want)
	}
}

func TestReallocMovesBudgetTowardConstrainedComputeCores(t *testing.T) {
	cfg := Config{FineEpochsPerRealloc: 2}
	c := newController(t, 4, cfg)
	out := make([]int, 4)
	tel := fakeTel(4, 3, 0.3, 0.1) // cores 0,1: light draw
	// Core 2: constrained and compute-bound. Core 3: constrained but
	// memory-bound.
	tel.Cores[2].PowerW = 12.0
	tel.Cores[2].MemBoundedness = 0.05
	tel.Cores[3].PowerW = 12.0
	tel.Cores[3].MemBoundedness = 0.9
	// Two decides trigger exactly one reallocation pass; with static
	// consumption further passes converge both constrained cores to the
	// same fixed point, so inspect the transient grant.
	c.Decide(tel, 40, out)
	c.Decide(tel, 40, out)
	b := c.Budgets()
	if b[2] <= b[0] {
		t.Fatalf("constrained core budget %v should exceed idle core %v", b[2], b[0])
	}
	if b[2] <= b[3] {
		t.Fatalf("compute-bound core budget %v should exceed memory-bound %v", b[2], b[3])
	}
}

// TestNominalWork: every live agent chooses from one Q-row of levels
// values per epoch, and a reallocation pass adds one unit per live core
// for each loop it runs. Cores drawing more than their share leave no
// slack to harvest, so every pass stops after its first loop.
func TestNominalWork(t *testing.T) {
	levels := vf.Default().Levels()
	off := newController(t, 4, Config{DisableRealloc: true})
	on := newController(t, 4, Config{FineEpochsPerRealloc: 2})
	out := make([]int, 4)
	tel := fakeTel(4, 3, 20, 0.1)
	tel.Cores[3].Dead = true
	for e := 0; e < 10; e++ {
		off.Decide(tel, 40, out)
		on.Decide(tel, 40, out)
	}
	if got, want := off.NominalWork(), uint64(10*3*levels); got != want {
		t.Errorf("without reallocation: work %d, want %d", got, want)
	}
	if got, want := on.NominalWork(), uint64(10*3*levels+5*3); got != want {
		t.Errorf("with reallocation every 2 epochs: work %d, want %d", got, want)
	}
}

func TestDisableReallocFreezesBudgets(t *testing.T) {
	c := newController(t, 4, Config{DisableRealloc: true, FineEpochsPerRealloc: 2})
	out := make([]int, 4)
	tel := fakeTel(4, 3, 0.2, 0.1)
	tel.Cores[0].PowerW = 10
	for e := 0; e < 20; e++ {
		c.Decide(tel, 40, out)
	}
	b := c.Budgets()
	for i := 1; i < 4; i++ {
		if math.Abs(b[i]-b[0]) > 1e-9 {
			t.Fatal("budgets moved despite DisableRealloc")
		}
	}
}

func TestBudgetRescaleOnCapChange(t *testing.T) {
	c := newController(t, 4, Config{DisableRealloc: true})
	out := make([]int, 4)
	tel := fakeTel(4, 3, 1.0, 0.3)
	c.Decide(tel, 44, out)
	before := c.Budgets()
	c.Decide(tel, 24, out) // cap drops 44→24 W
	after := c.Budgets()
	wantScale := (24 - power.Default().UncoreW) / (44 - power.Default().UncoreW)
	for i := range after {
		if math.Abs(after[i]-before[i]*wantScale) > 1e-9 {
			t.Fatalf("core %d: budget %v, want %v", i, after[i], before[i]*wantScale)
		}
	}
}

func TestRewardShape(t *testing.T) {
	c := newController(t, 1, Config{Lambda: 4})
	ct := &manycore.CoreTelemetry{IPS: c.maxIPS / 2, PowerW: 1.0}
	// Under budget: pure performance term.
	if got := c.rewardOf(ct, 2.0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("under-budget reward = %v, want 0.5", got)
	}
	// 50% overshoot: penalty of λ·0.5 applies.
	ct.PowerW = 3.0
	want := 0.5 - 4*0.5
	if got := c.rewardOf(ct, 2.0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("overshoot reward = %v, want %v", got, want)
	}
	// Zero budget: no overshoot term (avoid division by zero).
	if got := c.rewardOf(ct, 0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("zero-budget reward = %v, want 0.5", got)
	}
}

func TestCommPerEpochAmortized(t *testing.T) {
	mesh, err := noc.New(8, 8, noc.Default())
	if err != nil {
		t.Fatal(err)
	}
	c := newController(t, 64, Config{FineEpochsPerRealloc: 10})
	full := mesh.GatherCost(mesh.Center())
	got := c.CommPerEpoch(mesh)
	if got.LatencyS >= full.LatencyS {
		t.Fatal("OD-RL per-epoch comm must be amortised below a full gather")
	}
	if got.EnergyJ <= 0 {
		t.Fatal("realloc traffic must cost something")
	}
	ablated := newController(t, 64, Config{DisableRealloc: true})
	if ab := ablated.CommPerEpoch(mesh); ab.LatencyS != 0 || ab.EnergyJ != 0 {
		t.Fatal("no-realloc ablation must have zero comm")
	}
}

func TestDeterministicDecisions(t *testing.T) {
	run := func() []int {
		c := newController(t, 8, Config{Seed: 42})
		out := make([]int, 8)
		tel := fakeTel(8, 2, 1.2, 0.4)
		for e := 0; e < 100; e++ {
			c.Decide(tel, 50, out)
		}
		return append([]int(nil), out...)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed controllers diverged")
		}
	}
}

func TestLearnsToAvoidOvershootInStaticEnvironment(t *testing.T) {
	// Closed-form toy environment: power at level l is known; per-core
	// budget permits exactly level 4. A trained agent should settle at or
	// below the budget-feasible level most of the time.
	tbl := vf.Default()
	pp := power.Default()
	cfg := DefaultConfig()
	cfg.Seed = 3
	cfg.EpsilonDecay = 0.999
	c, err := New(1, tbl, pp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const mb = 0.0
	level := 3
	powerAt := func(l int) float64 {
		op := tbl.Point(l)
		return pp.CoreW(op.VoltageV, op.FreqHz, 0.9, 330)
	}
	// Chip budget so that the per-core share sits between level 4 and 5.
	share := (powerAt(4) + powerAt(5)) / 2
	chipBudget := share + pp.UncoreW

	out := make([]int, 1)
	overshootLate := 0
	for e := 0; e < 8000; e++ {
		op := tbl.Point(level)
		tel := &manycore.Telemetry{
			EpochS: 1e-3,
			Cores: []manycore.CoreTelemetry{{
				Level:          level,
				FreqHz:         op.FreqHz,
				VoltageV:       op.VoltageV,
				IPS:            op.FreqHz / 1.0,
				PowerW:         powerAt(level),
				MemBoundedness: mb,
				TempK:          330,
			}},
		}
		tel.TruePowerW = powerAt(level) + pp.UncoreW
		tel.ChipPowerW = tel.TruePowerW
		c.Decide(tel, chipBudget, out)
		level = out[0]
		if e >= 7000 && powerAt(level) > share {
			overshootLate++
		}
	}
	if overshootLate > 150 { // 15% of the last 1000 epochs
		t.Fatalf("trained agent overshot its share in %d/1000 late epochs", overshootLate)
	}
}

func TestReallocEMASmoothsPowerView(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReallocEMA = 0.1
	c := newController(t, 2, cfg)
	out := make([]int, 2)
	// First decide seeds the EMA with the sample itself.
	telA := fakeTel(2, 3, 4.0, 0.2)
	c.Decide(telA, 20, out)
	if got := c.reallocPower(telA, 0); math.Abs(got-4.0) > 1e-12 {
		t.Fatalf("EMA seed = %v, want 4.0", got)
	}
	// A power spike moves the smoothed view by only alpha of the jump.
	telB := fakeTel(2, 3, 14.0, 0.2)
	c.Decide(telB, 20, out)
	want := 0.1*14.0 + 0.9*4.0
	if got := c.reallocPower(telB, 0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("smoothed power = %v, want %v", got, want)
	}
	// Without the option, the view is the raw sample.
	plain := newController(t, 2, DefaultConfig())
	plain.Decide(telB, 20, out)
	if got := plain.reallocPower(telB, 0); got != 14.0 {
		t.Fatalf("raw power view = %v, want 14.0", got)
	}
}

func TestFunctionApproxMode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FunctionApprox = true
	c := newController(t, 8, cfg)
	if c.Name() != "od-rl-fa" {
		t.Fatalf("Name = %q", c.Name())
	}
	out := make([]int, 8)
	tel := fakeTel(8, 2, 1.0, 0.3)
	for e := 0; e < 100; e++ {
		c.Decide(tel, 40, out)
		for _, l := range out {
			if l < 0 || l >= vf.Default().Levels() {
				t.Fatalf("FA mode emitted invalid level %d", l)
			}
		}
	}
	// Persistence is tabular-only.
	if err := c.SavePolicy(&discard{}); err == nil {
		t.Fatal("SavePolicy must fail in FA mode")
	}
	if err := c.LoadPolicy(nil); err == nil {
		t.Fatal("LoadPolicy must fail in FA mode")
	}
}

// discard is an io.Writer that drops everything.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func TestFunctionApproxLearnsToAvoidOvershoot(t *testing.T) {
	// Same closed-form toy environment as the tabular test: the FA agent
	// must also settle at or below the budget-feasible level.
	tbl := vf.Default()
	pp := power.Default()
	cfg := DefaultConfig()
	cfg.FunctionApprox = true
	cfg.Seed = 3
	cfg.EpsilonDecay = 0.999
	c, err := New(1, tbl, pp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	level := 3
	powerAt := func(l int) float64 {
		op := tbl.Point(l)
		return pp.CoreW(op.VoltageV, op.FreqHz, 0.9, 330)
	}
	share := (powerAt(4) + powerAt(5)) / 2
	chipBudget := share + pp.UncoreW
	out := make([]int, 1)
	overshootLate := 0
	for e := 0; e < 8000; e++ {
		op := tbl.Point(level)
		tel := &manycore.Telemetry{
			EpochS: 1e-3,
			Cores: []manycore.CoreTelemetry{{
				Level: level, FreqHz: op.FreqHz, VoltageV: op.VoltageV,
				IPS: op.FreqHz / 1.0, PowerW: powerAt(level), TempK: 330,
			}},
		}
		tel.TruePowerW = powerAt(level) + pp.UncoreW
		tel.ChipPowerW = tel.TruePowerW
		c.Decide(tel, chipBudget, out)
		level = out[0]
		if e >= 7000 && powerAt(level) > share {
			overshootLate++
		}
	}
	if overshootLate > 200 {
		t.Fatalf("FA agent overshot its share in %d/1000 late epochs", overshootLate)
	}
}

func TestPhaseTimesProfile(t *testing.T) {
	c := newController(t, 16, Config{FineEpochsPerRealloc: 5})
	tel := fakeTel(16, 2, 2.0, 0.3)
	out := make([]int, 16)
	const epochs = 20
	for e := 0; e < epochs; e++ {
		c.Decide(tel, 90, out)
	}

	byName := map[string]obs.PhaseTime{}
	for _, pt := range c.PhaseTimes() {
		byName[pt.Name] = pt
	}
	local, ok := byName[obs.PhaseLocal]
	if !ok || local.Count != epochs {
		t.Errorf("local phase = %+v, want count %d", local, epochs)
	}
	global := byName[obs.PhaseGlobal]
	if want := int64(epochs / 5); global.Count != want {
		t.Errorf("global phase count = %d, want %d (cadence 5 over %d epochs)", global.Count, want, epochs)
	}
	if local.Total <= 0 {
		t.Errorf("local phase total = %v, want > 0", local.Total)
	}

	// Communication accounting is timed under the comm phase.
	mesh, err := noc.New(4, 4, noc.Default())
	if err != nil {
		t.Fatal(err)
	}
	c.CommPerEpoch(mesh)
	for _, pt := range c.PhaseTimes() {
		if pt.Name == obs.PhaseComm && pt.Count != 1 {
			t.Errorf("comm phase count = %d, want 1", pt.Count)
		}
	}

	c.ResetPhaseTimes()
	for _, pt := range c.PhaseTimes() {
		if pt.Count != 0 || pt.Total != 0 {
			t.Errorf("after reset, phase %s = %+v", pt.Name, pt)
		}
	}
}
