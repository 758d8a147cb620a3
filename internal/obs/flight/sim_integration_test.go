package flight_test

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/monitor"
	"repro/internal/sim"
)

// TestFaultyRunTriggersAlertDump is the acceptance end-to-end: an
// F18-style faulty run (the canonical fault plan with its dead-core axis
// pushed until throughput collapses) must fire a deterministic run-health
// alert, and the alert must leave a post-mortem bundle holding the last
// >= 64 epochs plus loadable Perfetto spans.
func TestFaultyRunTriggersAlertDump(t *testing.T) {
	var dumps []struct {
		trigger string
		files   []flight.BundleFile
	}
	rec := flight.New(flight.Options{
		OnDump: func(_ int, _ obs.RunMeta, trigger string, files []flight.BundleFile) {
			dumps = append(dumps, struct {
				trigger string
				files   []flight.BundleFile
			}{trigger, files})
		},
	})

	opts := sim.DefaultOptions()
	opts.WarmupS = 0.2
	opts.MeasureS = 2
	// The canonical F18 plan at full intensity, with the dead-core axis
	// raised so the bips-collapse invariant (throughput below half its
	// running peak for 20 epochs) is guaranteed to trip inside the window.
	plan := fault.Scaled(1.0)
	plan.DeadCoreFrac = 0.8
	opts.FaultPlan = &plan
	mon := monitor.New(monitor.Options{
		Rules: monitor.DeterministicDefaultRules(opts.BudgetW, opts.EpochS),
	})
	opts.Monitor = mon
	opts.Observer = rec            // teed with the monitor by sim
	opts.SpanSink = rec.Timeline() // the run's one span ring

	env, err := sim.EnvFor(opts)
	if err != nil {
		t.Fatal(err)
	}
	c, err := sim.NewController("od-rl", env)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(opts, c); err != nil {
		t.Fatal(err)
	}

	if mon.AlertsFired() == 0 {
		t.Fatal("faulty run fired no alerts; the dump path was never exercised")
	}
	if len(dumps) != 1 {
		t.Fatalf("got %d dumps, want exactly 1 (first alert only)", len(dumps))
	}
	d := dumps[0]
	if d.trigger != "alert" {
		t.Fatalf("dump trigger %q, want alert", d.trigger)
	}
	byName := map[string][]byte{}
	for _, f := range d.files {
		byName[strings.TrimPrefix(f.Name, "flight/alert/")] = f.Data
	}
	events, err := flight.ReadEpochsJSONL(byName["epochs.jsonl"])
	if err != nil {
		t.Fatal(err)
	}
	if len(events) < 64 {
		t.Fatalf("bundle holds %d epochs, want >= 64", len(events))
	}
	// The retained window must end at the alert epoch: the whole point is
	// the moments leading up to the incident.
	for i := 1; i < len(events); i++ {
		if events[i].Epoch != events[i-1].Epoch+1 {
			t.Fatalf("retained epochs not contiguous at %d: %d -> %d", i, events[i-1].Epoch, events[i].Epoch)
		}
	}
	n, err := flight.ValidateTraceJSON(byName["spans.json"])
	if err != nil {
		t.Fatalf("spans.json is not loadable Perfetto trace JSON: %v", err)
	}
	if n == 0 {
		t.Fatal("spans.json holds no spans; the od-rl controller streams phase spans and the harness should have teed them into the recorder")
	}
	if !strings.Contains(string(byName["context.json"]), `"trigger": "alert"`) {
		t.Fatalf("context.json: %s", byName["context.json"])
	}
}
