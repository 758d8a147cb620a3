package sim

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs/monitor"
)

// faultOpts returns short options with the canonical fault plan armed.
func faultOpts(intensity float64) Options {
	o := shortOpts()
	o.TracePoints = 0
	if intensity > 0 {
		p := fault.Scaled(intensity)
		o.FaultPlan = &p
	}
	return o
}

// runFingerprint runs one controller and reduces the result to its
// deterministic fields (wall-clock metrics excluded).
func runFingerprint(t *testing.T, opts Options, name string) (Result, []float64) {
	t.Helper()
	env, err := EnvFor(opts)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController(name, env)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(opts, c)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary
	return res, []float64{s.Instr, s.EnergyJ, s.OverJ, s.OverTimeS, s.PeakW, s.MeanW, s.MaxTempK}
}

// TestZeroPlanByteIdentical is the acceptance criterion for the fault
// layer's disabled path: a nil plan and an all-zero plan must both produce
// exactly the results of the pre-fault-layer code path.
func TestZeroPlanByteIdentical(t *testing.T) {
	for _, name := range []string{"od-rl", "pid"} {
		base := faultOpts(0)
		_, clean := runFingerprint(t, base, name)

		zeroed := base
		zeroed.FaultPlan = &fault.Plan{}
		_, zero := runFingerprint(t, zeroed, name)

		if !reflect.DeepEqual(clean, zero) {
			t.Fatalf("%s: zero plan changed the run: %v vs %v", name, clean, zero)
		}
	}
}

// TestFaultRunWorkersIndependent pins the determinism contract under
// faults: the fault realisation and the full result must be identical for
// any -j, because every injector draw happens on the sequential epoch loop.
func TestFaultRunWorkersIndependent(t *testing.T) {
	for _, name := range []string{"od-rl", "maxbips"} {
		seq := faultOpts(1)
		seq.Workers = 1
		_, a := runFingerprint(t, seq, name)

		par := faultOpts(1)
		par.Workers = 4
		_, b := runFingerprint(t, par, name)

		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: fault run diverged across worker counts: %v vs %v", name, a, b)
		}
	}
}

// TestFaultRunReproducible: same options, same realisation.
func TestFaultRunReproducible(t *testing.T) {
	opts := faultOpts(1)
	_, a := runFingerprint(t, opts, "od-rl")
	_, b := runFingerprint(t, opts, "od-rl")
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed fault runs diverged: %v vs %v", a, b)
	}
}

// TestFaultPlanChangesRun: an armed plan must actually perturb the run.
func TestFaultPlanChangesRun(t *testing.T) {
	_, clean := runFingerprint(t, faultOpts(0), "od-rl")
	_, faulted := runFingerprint(t, faultOpts(1), "od-rl")
	if reflect.DeepEqual(clean, faulted) {
		t.Fatal("canonical plan at intensity 1 left the run untouched")
	}
}

// TestFaultRunMetaNamesPlan: an observed run's metadata carries the fault
// plan's identity, which the run ledger keys on, and a run with no plan or
// a zero plan carries none, so its ledger key matches older records.
func TestFaultRunMetaNamesPlan(t *testing.T) {
	half := fault.Scaled(0.5)
	for _, tc := range []struct {
		plan *fault.Plan
		want string
	}{
		{nil, ""},
		{&fault.Plan{}, ""},
		{&half, half.ID()},
	} {
		opts := faultOpts(0)
		opts.FaultPlan = tc.plan
		mon := monitor.New(monitor.Options{})
		opts.Monitor = mon
		runFingerprint(t, opts, "pid")
		if got := mon.Runs()[0].Meta.FaultPlan; got != tc.want {
			t.Fatalf("plan %+v: run meta names plan %q, want %q", tc.plan, got, tc.want)
		}
	}
	if half.ID() == "" {
		t.Fatal("a faulted plan has an empty ID")
	}
}

// TestFaultRunStaysSane: under the harshest canonical plan every controller
// must still produce a valid, finite summary — graceful degradation, not
// NaN propagation or a panic.
func TestFaultRunStaysSane(t *testing.T) {
	for _, name := range ControllerNames() {
		opts := faultOpts(1)
		res, fp := runFingerprint(t, opts, name)
		for i, v := range fp {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: non-finite summary field %d: %v", name, i, fp)
			}
		}
		if res.Summary.Instr <= 0 {
			t.Fatalf("%s: no instructions retired under faults", name)
		}
	}
}

// TestDeadCoresFreezeAtBottom: cores killed by the plan must end pinned
// dark; the chip reports them dead and holds level 0.
func TestDeadCoresFreezeAtBottom(t *testing.T) {
	opts := shortOpts()
	opts.TracePoints = 0
	opts.MeasureS = 0.4
	p := fault.Plan{DeadCoreFrac: 0.25}
	opts.FaultPlan = &p

	chipCheck, _, err := NewChip(opts)
	if err != nil {
		t.Fatal(err)
	}
	_ = chipCheck // NewChip must accept the plan without side effects

	env, err := EnvFor(opts)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController("od-rl", env)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(opts, c)
	if err != nil {
		t.Fatal(err)
	}
	// 25% of 16 cores die; the run must still finish with work done.
	if res.Summary.Instr <= 0 {
		t.Fatal("no instructions retired with dead cores")
	}
	dead := 0
	for _, l := range res.FinalLevels {
		if l == 0 {
			dead++
		}
	}
	if dead < 4 {
		t.Fatalf("expected at least the 4 dead cores at level 0, got %d", dead)
	}
}

// TestEnvForArmsWatchdog: a fault plan must switch the OD-RL stale-telemetry
// watchdog on, and its absence must leave it off.
func TestEnvForArmsWatchdog(t *testing.T) {
	clean, err := EnvFor(shortOpts())
	if err != nil {
		t.Fatal(err)
	}
	if clean.WatchdogEpochs != 0 {
		t.Fatalf("fault-free env armed the watchdog: %d", clean.WatchdogEpochs)
	}
	faulted, err := EnvFor(faultOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if faulted.WatchdogEpochs <= 0 {
		t.Fatal("faulted env left the watchdog off")
	}
}

// TestOptionsValidateFaultPlan: an invalid plan must be rejected at the
// options layer, before any run starts.
func TestOptionsValidateFaultPlan(t *testing.T) {
	o := shortOpts()
	o.FaultPlan = &fault.Plan{SensorStuckProb: 2}
	if err := o.Validate(); err == nil {
		t.Fatal("invalid fault plan passed Options.Validate")
	}
}
