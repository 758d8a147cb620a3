package sim

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/learn"
	"repro/internal/obs/monitor"
)

// quickOpts is a small, fast run shared by the observability tests.
func quickOpts() Options {
	opts := DefaultOptions()
	opts.Cores = 16
	opts.WarmupS = 0.05
	opts.MeasureS = 0.2
	return opts
}

// TestTraceDecimationCount is the regression test for the trace stride:
// when TracePoints does not divide the measurement epoch count, ceiling
// division must keep the recorded trace within the requested point count
// (the old floor stride could overshoot it by almost 2×).
func TestTraceDecimationCount(t *testing.T) {
	cases := []struct {
		measureS float64
		points   int
	}{
		{0.2, 30},  // 200 epochs, 30 points: 200/30 floors to 6 → 34 points
		{0.2, 64},  // 200/64 floors to 3 → 67 points
		{0.1, 100}, // exact divide: stride 1, exactly 100
		{0.1, 7},   // 100/7 floors to 14 → 15 points
		{0.01, 50}, // fewer epochs than points: stride 1, 10 points
	}
	for _, tc := range cases {
		opts := quickOpts()
		opts.MeasureS = tc.measureS
		opts.TracePoints = tc.points
		_, measureEpochs := opts.Epochs()

		c, err := NewController("static", DefaultEnv(opts.Cores))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(opts, c)
		if err != nil {
			t.Fatal(err)
		}
		got := len(res.Trace)
		if got > tc.points {
			t.Errorf("measure=%gs points=%d: recorded %d trace points, exceeds request",
				tc.measureS, tc.points, got)
		}
		want := tc.points
		if measureEpochs < want {
			want = measureEpochs
		}
		// Ceiling division guarantees at least half the request is used
		// whenever enough epochs exist.
		if got < (want+1)/2 {
			t.Errorf("measure=%gs points=%d: recorded only %d trace points, want >= %d",
				tc.measureS, tc.points, got, (want+1)/2)
		}
	}
}

// TestRunObserverTrace runs with a JSONL tracer attached and checks the
// acceptance property: the undecimated per-epoch power integral matches
// the run's measured energy within 1%, and the event stream is
// structurally sound.
func TestRunObserverTrace(t *testing.T) {
	var buf bytes.Buffer
	tracer := obs.NewTracer(obs.NewWriterSink(&buf), obs.TracerOptions{Every: 1})

	opts := quickOpts()
	opts.Observer = tracer
	env := EnvFor64(t, opts)
	c, err := NewController("od-rl", env)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(opts, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := obs.ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	_, measureEpochs := opts.Epochs()
	if want := measureEpochs + 2; len(recs) != want {
		t.Fatalf("got %d records, want %d (start + %d epochs + end)", len(recs), want, measureEpochs)
	}
	start, end := recs[0], recs[len(recs)-1]
	if start.Type != "run_start" || start.Meta.Controller != "od-rl" ||
		start.Meta.Cores != opts.Cores || start.Meta.Seed != opts.Seed {
		t.Errorf("run_start = %+v", start)
	}
	if end.Type != "run_end" || end.Sampled != measureEpochs {
		t.Errorf("run_end = %+v, want sampled=%d", end, measureEpochs)
	}

	var energyJ, islandJ float64
	for _, r := range recs[1 : len(recs)-1] {
		ev := r.Event
		if r.Type != "epoch" {
			t.Fatalf("unexpected record type %q mid-run", r.Type)
		}
		energyJ += ev.PowerW * opts.EpochS
		levels := 0
		for _, n := range ev.LevelHist {
			levels += n
		}
		if levels != opts.Cores {
			t.Errorf("epoch %d: level histogram sums to %d cores, want %d", ev.Epoch, levels, opts.Cores)
		}
		if len(ev.IslandPowerW) != 1 {
			t.Errorf("epoch %d: %d islands for per-core DVFS, want 1", ev.Epoch, len(ev.IslandPowerW))
		}
		for _, p := range ev.IslandPowerW {
			islandJ += p * opts.EpochS
		}
		if ev.OvershootW < 0 || (ev.PowerW > ev.BudgetW && ev.OvershootW == 0) {
			t.Errorf("epoch %d: inconsistent overshoot %g (power %g, budget %g)",
				ev.Epoch, ev.OvershootW, ev.PowerW, ev.BudgetW)
		}
	}
	if rel := math.Abs(energyJ-res.Summary.EnergyJ) / res.Summary.EnergyJ; rel > 0.01 {
		t.Errorf("trace power integral %g J vs measured energy %g J: %.2f%% off, want <1%%",
			energyJ, res.Summary.EnergyJ, 100*rel)
	}
	// Island sums use observed (noisy, core-only) power, so allow a looser
	// envelope against exact chip energy (which includes uncore).
	if islandJ <= 0 || islandJ > energyJ {
		t.Errorf("island power integral %g J outside (0, %g]", islandJ, energyJ)
	}
}

// EnvFor64 wraps EnvFor for tests, failing on error.
func EnvFor64(t *testing.T, opts Options) Env {
	t.Helper()
	env, err := EnvFor(opts)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// TestRunPhaseSplit checks that the od-rl controller's decision time is
// split into local-learning and global-reallocation phases covering the
// measurement window.
func TestRunPhaseSplit(t *testing.T) {
	opts := quickOpts()
	c, err := NewController("od-rl", EnvFor64(t, opts))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(opts, c)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary
	if s.CtrlLocalTimeS <= 0 {
		t.Errorf("CtrlLocalTimeS = %g, want > 0", s.CtrlLocalTimeS)
	}
	if s.CtrlGlobalTimeS <= 0 {
		t.Errorf("CtrlGlobalTimeS = %g, want > 0", s.CtrlGlobalTimeS)
	}
	// The phases are sub-spans of the timed Decide calls; allow generous
	// slop for timer granularity but catch gross double counting.
	if sum := s.CtrlLocalTimeS + s.CtrlGlobalTimeS; sum > 2*s.CtrlTimeS+1e-3 {
		t.Errorf("phase sum %g s wildly exceeds CtrlTimeS %g s", sum, s.CtrlTimeS)
	}

	// Baselines without probes report zero phase time.
	c2, err := NewController("static", EnvFor64(t, opts))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Run(opts, c2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Summary.CtrlLocalTimeS != 0 || res2.Summary.CtrlGlobalTimeS != 0 {
		t.Errorf("static controller has phase times %g/%g, want 0/0",
			res2.Summary.CtrlLocalTimeS, res2.Summary.CtrlGlobalTimeS)
	}
}

// TestRunUsesStack proves every layer of Options.Stack sees the run: the
// observer gets its records, the monitor and learn layer register the run,
// and the extra span sink receives the controller's phase spans.
func TestRunUsesStack(t *testing.T) {
	var buf bytes.Buffer
	tracer := obs.NewTracer(obs.NewWriterSink(&buf), obs.TracerOptions{Every: 50})
	mon := monitor.New(monitor.Options{})
	lrn := learn.New(learn.Options{})
	spans := monitor.NewTimeline(64)

	opts := quickOpts()
	opts.Stack = Stack{Observer: tracer, Monitor: mon, Learn: lrn, SpanSink: spans}
	c, err := NewController("od-rl", EnvFor64(t, opts))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(opts, c); err != nil {
		t.Fatal(err)
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 3 || recs[0].Meta.Controller != "od-rl" {
		t.Fatalf("observer saw %d records (first %+v), want start+sample+end of od-rl", len(recs), recs[0])
	}
	if runs := mon.Runs(); len(runs) != 1 || runs[0].Epochs == 0 {
		t.Fatalf("monitor saw %+v", runs)
	}
	if runs := lrn.Runs(); len(runs) != 1 || runs[0].Summarize(false).Epochs == 0 {
		t.Fatalf("learn layer saw %d runs", len(runs))
	}
	if spans.Total() == 0 {
		t.Fatal("span sink received no phase spans")
	}
}

// TestDefaultObserverFallback pins what a run with no Stack.Observer falls
// back to: nothing. An observer attached to one run must not see a later
// run built from default Options, and that run's results must equal the
// observed one's.
func TestDefaultObserverFallback(t *testing.T) {
	var buf bytes.Buffer
	tracer := obs.NewTracer(obs.NewWriterSink(&buf), obs.TracerOptions{Every: 50})
	opts := monitorTestOpts()
	opts.MeasureS = 0.1
	opts.Observer = tracer
	observed := stripWallClock(runWith(t, opts, "greedy"))
	opts.Observer = nil
	plain := stripWallClock(runWith(t, opts, "greedy"))
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	starts := 0
	for _, r := range recs {
		if r.Type == "run_start" {
			starts++
			if r.Meta.Controller != "greedy" {
				t.Errorf("controller = %q, want greedy", r.Meta.Controller)
			}
		}
	}
	if starts != 1 {
		t.Fatalf("observer saw %d runs, want only the one it was attached to", starts)
	}
	if !reflect.DeepEqual(observed, plain) {
		t.Fatal("run without an observer diverges from the observed run")
	}
}

// TestIslandEventGrouping checks per-island aggregation when islands are
// configured.
func TestIslandEventGrouping(t *testing.T) {
	var buf bytes.Buffer
	tracer := obs.NewTracer(obs.NewWriterSink(&buf), obs.TracerOptions{Every: 100})

	opts := quickOpts()
	opts.Cores = 16 // 4×4 grid
	opts.IslandW, opts.IslandH = 2, 2
	opts.Observer = tracer
	c, err := NewController("static", EnvFor64(t, opts))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(opts, c); err != nil {
		t.Fatal(err)
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sawEpoch := false
	for _, r := range recs {
		if r.Type != "epoch" {
			continue
		}
		sawEpoch = true
		if len(r.Event.IslandPowerW) != 4 {
			t.Errorf("epoch %d: %d islands, want 4 (4×4 grid of 2×2 islands)",
				r.Event.Epoch, len(r.Event.IslandPowerW))
		}
	}
	if !sawEpoch {
		t.Error("no epoch events recorded")
	}
}
