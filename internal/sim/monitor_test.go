package sim

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/monitor"
)

// monitorTestOpts is a short but non-trivial run: long enough for the
// monitor's EWMA and sustained-violation windows to engage.
func monitorTestOpts() Options {
	opts := DefaultOptions()
	opts.Cores = 16
	opts.WarmupS = 0.2
	opts.MeasureS = 0.8
	return opts
}

func runWith(t *testing.T, opts Options, controller string) Result {
	t.Helper()
	env, err := EnvFor(opts)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController(controller, env)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(opts, c)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// stripWallClock zeroes the wall-clock profiling fields, which vary run to
// run regardless of monitoring; everything else in a Result is a pure
// function of the options.
func stripWallClock(r Result) Result {
	r.Summary.CtrlTimeS = 0
	r.Summary.CtrlLocalTimeS = 0
	r.Summary.CtrlGlobalTimeS = 0
	return r
}

// TestMonitorDoesNotChangeResults is the read-only contract: the same run
// with monitoring off, monitoring on, and monitoring on teed with a
// tracer must produce deep-equal simulated results at any worker count.
func TestMonitorDoesNotChangeResults(t *testing.T) {
	for _, workers := range []int{1, 4} {
		opts := monitorTestOpts()
		opts.Workers = workers
		base := stripWallClock(runWith(t, opts, "od-rl"))

		opts.Monitor = monitor.New(monitor.Options{})
		mon := stripWallClock(runWith(t, opts, "od-rl"))
		if !reflect.DeepEqual(base, mon) {
			t.Fatalf("workers=%d: monitoring changed the result", workers)
		}

		var buf bytes.Buffer
		tracer := obs.NewTracer(obs.NewWriterSink(&buf), obs.TracerOptions{Every: 8})
		opts.Monitor = monitor.New(monitor.Options{})
		opts.Observer = tracer
		teed := stripWallClock(runWith(t, opts, "od-rl"))
		if !reflect.DeepEqual(base, teed) {
			t.Fatalf("workers=%d: monitor+tracer tee changed the result", workers)
		}
		if err := tracer.Close(); err != nil {
			t.Fatal(err)
		}
		if buf.Len() == 0 {
			t.Fatalf("workers=%d: teed tracer received nothing", workers)
		}
	}
}

// TestMonitorObservesRun checks the monitor fills its health record from a
// real run: every measurement epoch observed, sketches populated. The
// OD-RL controller's phase spans reach Stack.SpanSink, and only for the
// run it is attached to.
func TestMonitorObservesRun(t *testing.T) {
	opts := monitorTestOpts()
	mon := monitor.New(monitor.Options{})
	spans := monitor.NewTimeline(monitor.DefaultTimelineCap)
	opts.Monitor = mon
	opts.SpanSink = spans
	env, err := EnvFor(opts)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController("od-rl", env)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(opts, c); err != nil {
		t.Fatal(err)
	}

	runs := mon.Runs()
	if len(runs) != 1 {
		t.Fatalf("monitor saw %d runs, want 1", len(runs))
	}
	h := runs[0]
	_, measure := opts.Epochs()
	if h.Epochs != measure || !h.Done {
		t.Fatalf("run health = %d epochs done=%v, want %d done", h.Epochs, h.Done, measure)
	}
	if h.Meta.Controller != "od-rl" || h.Meta.BudgetW != opts.BudgetW {
		t.Fatalf("meta = %+v", h.Meta)
	}
	if h.Decide.Count() != int64(measure) || h.Decide.Quantile(0.99) <= 0 {
		t.Fatalf("decide sketch: count %d p99 %g", h.Decide.Count(), h.Decide.Quantile(0.99))
	}
	if got, err := h.Store.Get("power_w"); err != nil || got.Epochs != measure {
		t.Fatalf("power series: %v / %+v", err, got)
	}
	if spans.Total() == 0 {
		t.Fatal("no phase spans streamed from the od-rl controller")
	}
	// Span streaming must detach at run end: running the same controller
	// again without a sink must not grow the first run's ring.
	before := spans.Total()
	if _, err := Run(monitorTestOpts(), c); err != nil {
		t.Fatal(err)
	}
	if after := spans.Total(); after != before {
		t.Fatalf("span ring grew %d→%d in a run without it: sink not detached", before, after)
	}
}

// TestRegistryDecideMatchesMonitor: a run traced every epoch into a
// registry and watched by a monitor reports one decide-latency
// distribution. The registry's sketch and the run's health sketch agree
// exactly on count, p50, p95, p99 and mean.
func TestRegistryDecideMatchesMonitor(t *testing.T) {
	opts := monitorTestOpts()
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(obs.NewWriterSink(io.Discard), obs.TracerOptions{Every: 1, Registry: reg})
	mon := monitor.New(monitor.Options{})
	opts.Observer, opts.Monitor = tracer, mon
	runWith(t, opts, "od-rl")
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}

	got := reg.Snapshot().Sketches["obs.trace.decide_ns"]
	want := mon.Runs()[0].Decide
	_, measure := opts.Epochs()
	if got == nil || got.Count() != int64(measure) || want.Count() != int64(measure) {
		t.Fatalf("registry sketch %v and monitor sketch (count %d), want %d observations each", got, want.Count(), measure)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if g, w := got.Quantile(q), want.Quantile(q); g != w {
			t.Errorf("p%g: registry %g ns, monitor %g ns", 100*q, g, w)
		}
	}
	if got.Mean() != want.Mean() {
		t.Errorf("mean: registry %g ns, monitor %g ns", got.Mean(), want.Mean())
	}
}

// TestFaultedRunFiresAlerts is the acceptance check for the default
// claim-invariant rules: a full-intensity canonical fault plan must trip at
// least one of them, the alert must appear in the teed JSONL trace, and
// the end-of-run summary must show it.
func TestFaultedRunFiresAlerts(t *testing.T) {
	opts := monitorTestOpts()
	opts.MeasureS = 2.0
	// A budget that actually binds a 16-core chip: with the canonical
	// plan's meter bias and cap transients, PID control sustains >2%
	// overshoot, which is exactly what the sustained-overshoot invariant
	// exists to catch.
	opts.BudgetW = 20
	p := fault.Scaled(1)
	opts.FaultPlan = &p
	mon := monitor.New(monitor.Options{})
	opts.Monitor = mon
	var trace bytes.Buffer
	tracer := obs.NewTracer(obs.NewWriterSink(&trace), obs.TracerOptions{Every: 1})
	opts.Observer = tracer
	runWith(t, opts, "pid")
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}

	if mon.AlertsFired() == 0 {
		t.Fatal("full-intensity fault run fired no alerts via the default rules")
	}
	h := mon.Runs()[0]
	if h.Faults == 0 {
		t.Fatal("monitor saw no fault events")
	}

	recs, err := obs.ReadRecords(bytes.NewReader(trace.Bytes()))
	if err != nil {
		t.Fatalf("ReadRecords: %v", err)
	}
	alerts := 0
	lastEpoch := -1
	for _, r := range recs {
		switch r.Type {
		case "epoch":
			lastEpoch = r.Event.Epoch
		case "alert":
			alerts++
			if r.Alert.Rule == "" || r.Alert.Metric == "" {
				t.Fatalf("alert record missing fields: %+v", r.Alert)
			}
			// The trace samples every epoch, so the epoch an alert names
			// is written before the alert.
			if r.Alert.Epoch != lastEpoch {
				t.Fatalf("alert naming epoch %d follows epoch record %d", r.Alert.Epoch, lastEpoch)
			}
		}
	}
	if alerts != mon.AlertsFired() {
		t.Fatalf("JSONL trace has %d alert records, monitor fired %d", alerts, mon.AlertsFired())
	}

	var sum bytes.Buffer
	if err := mon.WriteAlertSummary(&sum); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sum.String(), h.Alerts[0].Rule) {
		t.Fatalf("summary missing fired rule %q:\n%s", h.Alerts[0].Rule, sum.String())
	}
}

// TestDefaultMonitorFallback mirrors the observer contract: a run with no
// Stack.Monitor falls back to no monitor, so a monitor attached to one run
// never sees the next.
func TestDefaultMonitorFallback(t *testing.T) {
	mon := monitor.New(monitor.Options{})
	opts := monitorTestOpts()
	opts.MeasureS = 0.1
	opts.Monitor = mon
	monitored := stripWallClock(runWith(t, opts, "pid"))
	opts.Monitor = nil
	plain := stripWallClock(runWith(t, opts, "pid"))
	if runs := mon.Runs(); len(runs) != 1 || runs[0].Meta.Controller != "pid" {
		t.Fatalf("monitor saw %+v, want only the pid run it was attached to", mon.Runs())
	}
	if !reflect.DeepEqual(monitored, plain) {
		t.Fatal("run without a monitor diverges from the monitored run")
	}
}
