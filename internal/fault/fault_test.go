package fault

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/manycore"
)

func TestPlanValidate(t *testing.T) {
	if err := (Plan{}).Validate(); err != nil {
		t.Fatalf("zero plan should validate: %v", err)
	}
	if err := Scaled(1).Validate(); err != nil {
		t.Fatalf("canonical plan should validate: %v", err)
	}
	bad := []Plan{
		{SensorStuckProb: -0.1},
		{SensorStuckProb: 1.5},
		{SensorStuckProb: math.NaN()},
		{ActuationDropProb: 2},
		{ActuationClampProb: -1},
		{DeadCoreFrac: 1.01},
		{MeterBias: -1},
		{MeterBias: math.NaN()},
		{MeterDriftPerS: math.NaN()},
		{BlackoutRatePerS: -1},
		{BlackoutRatePerS: 1}, // rate without duration
		{BlackoutDurS: -0.1},
		{BudgetDropRatePerS: -1},
		{BudgetDropRatePerS: 1},                      // rate without frac/duration
		{BudgetDropRatePerS: 1, BudgetDropFrac: 0.5}, // still no duration
		{BudgetDropFrac: 1},
		{BudgetDropFrac: -0.1},
		{BudgetDropDurS: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d (%+v): expected validation error", i, p)
		}
	}
}

func TestZero(t *testing.T) {
	if !(Plan{}).Zero() {
		t.Fatal("empty plan should be zero")
	}
	if !Scaled(0).Zero() {
		t.Fatal("Scaled(0) should be zero")
	}
	if Scaled(0.1).Zero() {
		t.Fatal("Scaled(0.1) should not be zero")
	}
	// A plan with only window lengths set injects nothing.
	if !(Plan{BlackoutDurS: 1, BudgetDropDurS: 1, BudgetDropFrac: 0.5}).Zero() {
		t.Fatal("durations without rates should be zero")
	}
}

// TestPlanID: the plan identity the run ledger keys on is empty exactly
// for plans that inject nothing, stable for equal plans, and distinct for
// any field change, the fault seed included.
func TestPlanID(t *testing.T) {
	if id := (Plan{}).ID(); id != "" {
		t.Fatalf("zero plan ID = %q, want empty", id)
	}
	if id := Scaled(0).ID(); id != "" {
		t.Fatalf("Scaled(0) ID = %q, want empty", id)
	}
	half, full := Scaled(0.5), Scaled(1)
	if half.ID() == "" || half.ID() != Scaled(0.5).ID() {
		t.Fatalf("Scaled(0.5) ID unstable or empty: %q", half.ID())
	}
	seeded := half
	seeded.Seed = 9
	ids := map[string]bool{half.ID(): true, full.ID(): true, seeded.ID(): true}
	if len(ids) != 3 {
		t.Fatalf("distinct plans share an ID: %v", ids)
	}
}

func TestParseSpec(t *testing.T) {
	if p, err := ParseSpec(""); err != nil || p != nil {
		t.Fatalf("empty spec: got %v, %v", p, err)
	}
	p, err := ParseSpec("0.5")
	if err != nil {
		t.Fatal(err)
	}
	if want := Scaled(0.5); *p != want {
		t.Fatalf("intensity spec: got %+v want %+v", *p, want)
	}
	if _, err := ParseSpec("-1"); err == nil {
		t.Fatal("negative intensity should fail")
	}
	if _, err := ParseSpec("/no/such/plan.json"); err == nil {
		t.Fatal("missing plan file should fail")
	}

	dir := t.TempDir()
	path := dir + "/plan.json"
	var buf bytes.Buffer
	want := Scaled(0.3)
	if err := want.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err = ParseSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if *p != want {
		t.Fatalf("file spec: got %+v want %+v", *p, want)
	}
}

func TestLoadRejectsUnknownFieldsAndInvalid(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"no_such_knob": 1}`)); err == nil {
		t.Fatal("unknown field should fail")
	}
	if _, err := Load(strings.NewReader(`{"sensor_stuck_prob": 7}`)); err == nil {
		t.Fatal("invalid plan should fail")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	want := Scaled(0.8)
	want.Seed = 42
	var buf bytes.Buffer
	if err := want.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip drifted: got %+v want %+v", got, want)
	}
}

func TestNewInjectorRejectsBadArgs(t *testing.T) {
	if _, err := NewInjector(Plan{SensorStuckProb: 9}, 4, 1, 1); err == nil {
		t.Fatal("invalid plan should fail")
	}
	if _, err := NewInjector(Plan{}, 0, 1, 1); err == nil {
		t.Fatal("zero cores should fail")
	}
	if _, err := NewInjector(Plan{}, 4, 0, 1); err == nil {
		t.Fatal("zero length should fail")
	}
}

// replay drives an injector over a fixed schedule and returns its counts
// plus every event it emitted.
func replay(t *testing.T, plan Plan, cores int, epochs int, epochS float64, seed uint64) (Counts, []Event) {
	t.Helper()
	inj, err := NewInjector(plan, cores, float64(epochs)*epochS, seed)
	if err != nil {
		t.Fatal(err)
	}
	tel := manycore.Telemetry{Cores: make([]manycore.CoreTelemetry, cores)}
	var events []Event
	for e := 0; e < epochs; e++ {
		tStart := float64(e) * epochS
		events = append(events, inj.Tick(tStart, epochS)...)
		for i := range tel.Cores {
			tel.Cores[i] = manycore.CoreTelemetry{
				Level:  1,
				IPS:    1e9 + float64(e*cores+i),
				PowerW: 1 + 0.01*float64(e*cores+i),
				Dead:   inj.Dead(i),
			}
		}
		tel.TimeS = tStart + epochS
		tel.EpochS = epochS
		tel.ChipPowerW = 10 + float64(e)
		inj.FilterTelemetry(&tel)
		for i := 0; i < cores; i++ {
			inj.FilterLevel(i, (e+i)%3, 1)
		}
		inj.FilterBudget(tStart, 50)
	}
	return inj.Counts(), events
}

func TestInjectorDeterministicForSeed(t *testing.T) {
	plan := Scaled(1)
	c1, e1 := replay(t, plan, 16, 400, 1e-3, 7)
	c2, e2 := replay(t, plan, 16, 400, 1e-3, 7)
	if c1 != c2 {
		t.Fatalf("same-seed counts diverged: %+v vs %+v", c1, c2)
	}
	if !reflect.DeepEqual(e1, e2) {
		t.Fatalf("same-seed events diverged")
	}
	c3, _ := replay(t, plan, 16, 400, 1e-3, 8)
	if c1 == c3 {
		t.Fatal("different seeds produced identical fault counts")
	}
}

func TestPlanSeedPinsRealisation(t *testing.T) {
	plan := Scaled(1)
	plan.Seed = 99
	c1, _ := replay(t, plan, 16, 400, 1e-3, 1)
	c2, _ := replay(t, plan, 16, 400, 1e-3, 2)
	if c1 != c2 {
		t.Fatalf("pinned plan seed should be run-seed independent: %+v vs %+v", c1, c2)
	}
}

func TestInjectorKillsRequestedFraction(t *testing.T) {
	plan := Plan{DeadCoreFrac: 0.5}
	counts, events := replay(t, plan, 8, 1000, 1e-3, 3)
	if counts.DeadCores != 4 {
		t.Fatalf("expected 4 dead cores, got %d", counts.DeadCores)
	}
	seen := map[int]bool{}
	for _, ev := range events {
		if ev.Kind != KindCoreDead {
			t.Fatalf("unexpected event kind %q", ev.Kind)
		}
		if seen[ev.Core] {
			t.Fatalf("core %d died twice", ev.Core)
		}
		seen[ev.Core] = true
		if !math.IsInf(ev.UntilS, 1) {
			t.Fatalf("core death should be permanent, got until=%g", ev.UntilS)
		}
	}
}

func TestFilterLevelDeadCoreHolds(t *testing.T) {
	plan := Plan{DeadCoreFrac: 1}
	inj, err := NewInjector(plan, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Advance past every scheduled failure time.
	for e := 0; e < 1000; e++ {
		inj.Tick(float64(e)*1e-3, 1e-3)
	}
	for i := 0; i < 4; i++ {
		if !inj.Dead(i) {
			t.Fatalf("core %d should be dead", i)
		}
		if got := inj.FilterLevel(i, 3, 1); got != 1 {
			t.Fatalf("dead core %d actuated: got level %d, want 1", i, got)
		}
	}
}

func TestFilterBudgetDuringDrop(t *testing.T) {
	plan := Plan{BudgetDropRatePerS: 1000, BudgetDropFrac: 0.25, BudgetDropDurS: 0.05}
	inj, err := NewInjector(plan, 4, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	var dropped bool
	for e := 0; e < 1000; e++ {
		tStart := float64(e) * 1e-3
		inj.Tick(tStart, 1e-3)
		got := inj.FilterBudget(tStart, 100)
		if got != 100 {
			dropped = true
			if got != 75 {
				t.Fatalf("drop should scale budget to 75 W, got %g", got)
			}
		}
	}
	if !dropped {
		t.Fatal("a 1000/s drop rate never fired in 1 s")
	}
}

func TestFilterTelemetryStaleRepeat(t *testing.T) {
	plan := Plan{SensorStuckProb: 1} // every core stale every epoch
	inj, err := NewInjector(plan, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(e int) manycore.Telemetry {
		tel := manycore.Telemetry{
			Cores:      make([]manycore.CoreTelemetry, 2),
			TimeS:      float64(e+1) * 1e-3,
			EpochS:     1e-3,
			ChipPowerW: 10,
		}
		for i := range tel.Cores {
			tel.Cores[i] = manycore.CoreTelemetry{
				IPS: float64(100*e + i), PowerW: float64(e), Instructions: float64(e),
			}
		}
		return tel
	}
	first := mk(0)
	inj.FilterTelemetry(&first) // no history yet: passes through
	second := mk(1)
	inj.FilterTelemetry(&second)
	for i := range second.Cores {
		if second.Cores[i].IPS != first.Cores[i].IPS {
			t.Fatalf("core %d: stale repeat should hold IPS %g, got %g",
				i, first.Cores[i].IPS, second.Cores[i].IPS)
		}
		if second.Cores[i].Instructions != 1 {
			t.Fatalf("core %d: true instruction count must survive staleness", i)
		}
	}
	if inj.Counts().StaleCoreEpochs != 2 {
		t.Fatalf("expected 2 stale core-epochs, got %d", inj.Counts().StaleCoreEpochs)
	}
}

func TestFilterTelemetryMeterBias(t *testing.T) {
	plan := Plan{MeterBias: 0.1}
	inj, err := NewInjector(plan, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	tel := manycore.Telemetry{
		Cores: make([]manycore.CoreTelemetry, 1), TimeS: 1e-3, EpochS: 1e-3, ChipPowerW: 50,
	}
	inj.FilterTelemetry(&tel)
	if math.Abs(tel.ChipPowerW-55) > 1e-9 {
		t.Fatalf("10%% bias on 50 W should read 55 W, got %g", tel.ChipPowerW)
	}
}
