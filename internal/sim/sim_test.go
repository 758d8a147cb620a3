package sim

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/variation"
)

// shortOpts returns options small enough for unit tests.
func shortOpts() Options {
	o := DefaultOptions()
	o.Cores = 16
	o.WarmupS = 0.05
	o.MeasureS = 0.2
	o.TracePoints = 20
	return o
}

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Options){
		func(o *Options) { o.Cores = 0 },
		func(o *Options) { o.BudgetW = 0 },
		func(o *Options) { o.EpochS = 0 },
		func(o *Options) { o.WarmupS = -1 },
		func(o *Options) { o.MeasureS = 0 },
		func(o *Options) { o.SensorNoise = -0.1 },
		func(o *Options) { o.TracePoints = -1 },
		func(o *Options) { o.Workload = "unknown-bench" },
		func(o *Options) { o.BudgetSchedule = []BudgetStep{{AtS: -1, BudgetW: 50}} },
		func(o *Options) { o.BudgetSchedule = []BudgetStep{{AtS: 1, BudgetW: 0}} },
		func(o *Options) {
			o.BudgetSchedule = []BudgetStep{{AtS: 2, BudgetW: 50}, {AtS: 1, BudgetW: 40}}
		},
	}
	for i, m := range mutations {
		o := DefaultOptions()
		m(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("mutation %d: expected error", i)
		}
	}
}

func TestBudgetAt(t *testing.T) {
	o := DefaultOptions()
	o.BudgetW = 90
	o.BudgetSchedule = []BudgetStep{{AtS: 1, BudgetW: 60}, {AtS: 2, BudgetW: 80}}
	cases := []struct{ t, want float64 }{
		{0, 90}, {0.99, 90}, {1.0, 60}, {1.5, 60}, {2.0, 80}, {10, 80},
	}
	for _, c := range cases {
		if got := o.budgetAt(c.t); got != c.want {
			t.Errorf("budgetAt(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestGridFor(t *testing.T) {
	cases := []struct{ n, w, h int }{
		{1, 1, 1}, {4, 2, 2}, {16, 4, 4}, {64, 8, 8}, {256, 16, 16},
		{12, 4, 3}, {7, 7, 1}, {100, 10, 10}, {1024, 32, 32},
	}
	for _, c := range cases {
		w, h, err := GridFor(c.n)
		if err != nil {
			t.Fatalf("GridFor(%d): %v", c.n, err)
		}
		if w*h != c.n {
			t.Fatalf("GridFor(%d) = %dx%d", c.n, w, h)
		}
		if w != c.w || h != c.h {
			t.Errorf("GridFor(%d) = %dx%d, want %dx%d", c.n, w, h, c.w, c.h)
		}
	}
	if _, _, err := GridFor(0); err == nil {
		t.Fatal("expected error for zero cores")
	}
}

func TestFactoryBuildsAllControllers(t *testing.T) {
	for _, name := range ControllerNames() {
		c, err := NewController(name, DefaultEnv(16))
		if err != nil {
			t.Fatalf("NewController(%q): %v", name, err)
		}
		if c.Name() != name {
			t.Fatalf("controller %q reports name %q", name, c.Name())
		}
	}
	if _, err := NewController("bogus", DefaultEnv(16)); err == nil {
		t.Fatal("expected error for unknown controller")
	}
	if _, err := NewController("pid", Env{}); err == nil {
		t.Fatal("expected error for empty env")
	}
}

func TestRunProducesConsistentSummary(t *testing.T) {
	opts := shortOpts()
	c, err := NewController("pid", DefaultEnv(opts.Cores))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(opts, c)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.DurS-opts.MeasureS) > opts.EpochS {
		t.Fatalf("measured %v s, want ~%v", s.DurS, opts.MeasureS)
	}
	if s.Instr <= 0 {
		t.Fatal("no instructions retired")
	}
	if s.MeanW <= 0 || s.PeakW < s.MeanW {
		t.Fatalf("power stats inconsistent: mean %v peak %v", s.MeanW, s.PeakW)
	}
	if s.Controller != "pid" {
		t.Fatalf("controller label %q", s.Controller)
	}
	if len(res.FinalLevels) != opts.Cores {
		t.Fatalf("final levels has %d entries", len(res.FinalLevels))
	}
}

func TestRunDeterministic(t *testing.T) {
	opts := shortOpts()
	run := func() float64 {
		c, err := NewController("od-rl", DefaultEnv(opts.Cores))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(opts, c)
		if err != nil {
			t.Fatal(err)
		}
		return res.Summary.Instr
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same-seed runs diverged: %v vs %v", a, b)
	}
}

func TestRunSeedSensitivity(t *testing.T) {
	optsA := shortOpts()
	optsB := shortOpts()
	optsB.Seed = 999
	cA, _ := NewController("pid", DefaultEnv(optsA.Cores))
	cB, _ := NewController("pid", DefaultEnv(optsB.Cores))
	ra, err := Run(optsA, cA)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(optsB, cB)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Summary.Instr == rb.Summary.Instr {
		t.Fatal("different seeds produced identical instruction counts")
	}
}

func TestRunTraceDecimation(t *testing.T) {
	opts := shortOpts()
	opts.TracePoints = 10
	c, _ := NewController("static", DefaultEnv(opts.Cores))
	res, err := Run(opts, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) < 10 || len(res.Trace) > 25 {
		t.Fatalf("trace has %d points, want ~10-20", len(res.Trace))
	}
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i].TimeS <= res.Trace[i-1].TimeS {
			t.Fatal("trace times not increasing")
		}
	}
}

func TestRunBudgetScheduleApplied(t *testing.T) {
	opts := shortOpts()
	opts.WarmupS = 0
	opts.MeasureS = 0.2
	opts.BudgetW = 90
	opts.BudgetSchedule = []BudgetStep{{AtS: 0.1, BudgetW: 40}}
	opts.TracePoints = 40
	c, _ := NewController("static", DefaultEnv(opts.Cores))
	res, err := Run(opts, c)
	if err != nil {
		t.Fatal(err)
	}
	sawHigh, sawLow := false, false
	for _, p := range res.Trace {
		if p.BudgetW == 90 {
			sawHigh = true
		}
		if p.BudgetW == 40 {
			sawLow = true
		}
	}
	if !sawHigh || !sawLow {
		t.Fatalf("budget schedule not reflected in trace (high=%v low=%v)", sawHigh, sawLow)
	}
}

func TestRunRejectsNilController(t *testing.T) {
	if _, err := Run(shortOpts(), nil); err == nil {
		t.Fatal("expected error for nil controller")
	}
}

func TestRunAllAndTables(t *testing.T) {
	opts := shortOpts()
	opts.MeasureS = 0.1
	results, err := RunAll(opts, []string{"pid", "static"})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}

	var tbl bytes.Buffer
	if err := WriteSummaryTable(&tbl, results); err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	for _, want := range []string{"controller", "pid", "static", "BIPS"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary table missing %q:\n%s", want, out)
		}
	}

	var csv bytes.Buffer
	if err := WriteCSV(&csv, results); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want 3", len(lines))
	}

	var tr bytes.Buffer
	if err := WriteTrace(&tr, "pid", results[0].Trace); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tr.String(), "pid") {
		t.Fatal("trace CSV missing label")
	}
}

func TestRunWithCustomPlatform(t *testing.T) {
	plat, err := config.PlatformPreset("manycore-4pstate")
	if err != nil {
		t.Fatal(err)
	}
	opts := shortOpts()
	opts.Cores = 4
	opts.Platform = &plat
	env, err := EnvFor(opts)
	if err != nil {
		t.Fatal(err)
	}
	if env.VF.Levels() != 4 {
		t.Fatalf("env table has %d levels, want 4", env.VF.Levels())
	}
	c, err := NewController("od-rl", env)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(opts, c)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range res.FinalLevels {
		if l < 0 || l >= 4 {
			t.Fatalf("level %d outside the 4-P-state table", l)
		}
	}
}

func TestBuildSourcesErrorPaths(t *testing.T) {
	// Variation with invalid params must be rejected by Validate.
	opts := shortOpts()
	opts.Variation = &variation.Params{LeakSigma: -1}
	if err := opts.Validate(); err == nil {
		t.Fatal("expected validation error for bad variation")
	}
	// Island dims that do not tile the grid surface as a chip error.
	opts = shortOpts()
	opts.Cores = 16
	opts.IslandW, opts.IslandH = 3, 3
	if _, _, err := NewChip(opts); err == nil {
		t.Fatal("expected error for non-tiling islands")
	}
}

func TestNewChipBigLittle(t *testing.T) {
	opts := shortOpts()
	opts.Cores = 16
	opts.BigLittle = true
	chip, _, err := NewChip(opts)
	if err != nil {
		t.Fatal(err)
	}
	if chip.NumCores() != 16 {
		t.Fatal("wrong core count")
	}
	// With identical compute work the left (big) half must outpace the
	// right (little) half — drive all cores at one level for one epoch.
	tel := chip.Step(1e-3)
	left, right := 0.0, 0.0
	for i, ct := range tel.Cores {
		if i%4 < 2 {
			left += ct.PowerW
		} else {
			right += ct.PowerW
		}
	}
	if left <= right {
		t.Fatalf("big half power %v not above little half %v", left, right)
	}
}

func TestEnvForBadPlatform(t *testing.T) {
	opts := shortOpts()
	plat := config.Default()
	plat.FMaxGHz = 900 // unachievable under the tech params
	opts.Platform = &plat
	if _, err := EnvFor(opts); err == nil {
		t.Fatal("expected error for unachievable VF range")
	}
}

func TestRunAllUnknownController(t *testing.T) {
	if _, err := RunAll(shortOpts(), []string{"nope"}); err == nil {
		t.Fatal("expected error for unknown controller")
	}
}

func TestFactoryLambdaOverride(t *testing.T) {
	env := DefaultEnv(4)
	env.Lambda = 9
	c, err := NewController("od-rl", env)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "od-rl" {
		t.Fatal("wrong controller")
	}
	env.VF = nil
	if _, err := NewController("od-rl", env); err == nil {
		t.Fatal("expected error for nil table")
	}
	env = DefaultEnv(4)
	env.CadenceEpochs = 0
	if _, err := NewController("maxbips", env); err == nil {
		t.Fatal("expected error for zero cadence")
	}
}
