package flight

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/monitor"
)

// stubRun records what a downstream observer saw.
type stubRun struct {
	stride  int
	epochs  []int
	details []int
	alerts  int
	faults  int
	ended   bool
}

func (s *stubRun) ShouldSample(epoch int) bool { return epoch%s.stride == 0 }
func (s *stubRun) ObserveEpoch(ev *obs.EpochEvent) {
	s.epochs = append(s.epochs, ev.Epoch)
	if ev.IslandPowerW != nil {
		s.details = append(s.details, ev.Epoch)
	}
}
func (s *stubRun) ObserveAlert(*obs.AlertEvent) { s.alerts++ }
func (s *stubRun) ObserveFault(*obs.FaultEvent) { s.faults++ }
func (s *stubRun) End(metrics.Summary)          { s.ended = true }

type stubObserver struct{ run *stubRun }

func (s stubObserver) BeginRun(obs.RunMeta) obs.RunObserver { return s.run }

// feedEpochs drives n epochs through ro the way sim.Run does and returns
// how many of them were built with detail.
func feedEpochs(ro obs.RunObserver, n int) (detailed int) {
	ds, _ := ro.(obs.EpochDetailSampler)
	for e := 0; e < n; e++ {
		if !ro.ShouldSample(e) {
			continue
		}
		ev := obs.EpochEvent{
			Epoch:      e,
			TimeS:      float64(e) * 0.001,
			PowerW:     90 + float64(e%10),
			BudgetW:    95,
			OvershootW: float64(e%10) - 5, // positive on e%10 in 6..9
			MaxTempK:   330 + float64(e%7),
			DecideNs:   int64(1000 + e),
			IPS:        50e9,
		}
		if ev.OvershootW < 0 {
			ev.OvershootW = 0
		}
		if ds == nil || ds.WantsEpochDetail(e) {
			ev.IslandPowerW = []float64{ev.PowerW}
			detailed++
		}
		ro.ObserveEpoch(&ev)
	}
	return detailed
}

func TestRingKeepsLatestWindow(t *testing.T) {
	rec := New(Options{RingCap: 64})
	ro := rec.BeginRun(obs.RunMeta{Controller: "od-rl", EpochS: 0.001})
	feedEpochs(ro, 300)

	f := ro.(*flightRun)
	f.mu.Lock()
	frames := f.framesLocked()
	epochs := f.epochs
	f.mu.Unlock()
	if epochs != 300 {
		t.Fatalf("epochs observed: %d", epochs)
	}
	if len(frames) != 64 {
		t.Fatalf("retained %d frames, want 64", len(frames))
	}
	for i, fr := range frames {
		if want := 300 - 64 + i; fr.Epoch != want {
			t.Fatalf("frame %d: epoch %d, want %d (ring should keep the latest window in order)", i, fr.Epoch, want)
		}
	}
}

func TestAlertTriggersDumpOnce(t *testing.T) {
	type dumpRec struct {
		seq     int
		trigger string
		files   []BundleFile
	}
	var dumps []dumpRec
	rec := New(Options{RingCap: 64, OnDump: func(seq int, _ obs.RunMeta, trigger string, files []BundleFile) {
		dumps = append(dumps, dumpRec{seq, trigger, files})
	}})
	rec.Timeline().RecordSpan("local", 1000, 500)
	rec.Timeline().RecordSpan("global", 1600, 300)

	ro := rec.BeginRun(obs.RunMeta{Controller: "od-rl", BudgetW: 95, EpochS: 0.001})
	feedEpochs(ro, 200)
	alert := &obs.AlertEvent{Epoch: 199, Rule: "power-overshoot", Metric: "overshoot_w", Op: ">", Threshold: 0, Value: 4}
	ro.(obs.AlertObserver).ObserveAlert(alert)
	ro.(obs.AlertObserver).ObserveAlert(alert) // second alert must not re-dump
	ro.End(metrics.Summary{})

	if len(dumps) != 1 {
		t.Fatalf("got %d dumps, want 1", len(dumps))
	}
	d := dumps[0]
	if d.trigger != "alert" {
		t.Fatalf("trigger %q", d.trigger)
	}
	byName := map[string][]byte{}
	for _, f := range d.files {
		if !strings.HasPrefix(f.Name, "flight/alert/") {
			t.Fatalf("bundle file %q lacks trigger prefix", f.Name)
		}
		byName[strings.TrimPrefix(f.Name, "flight/alert/")] = f.Data
	}

	events, err := ReadEpochsJSONL(byName["epochs.jsonl"])
	if err != nil {
		t.Fatal(err)
	}
	if len(events) < 64 {
		t.Fatalf("bundle holds %d epochs, want >= 64", len(events))
	}
	if last := events[len(events)-1].Epoch; last != 199 {
		t.Fatalf("last retained epoch %d, want 199", last)
	}

	n, err := ValidateTraceJSON(byName["spans.json"])
	if err != nil {
		t.Fatalf("spans.json not loadable Perfetto: %v", err)
	}
	if n == 0 {
		t.Fatal("spans.json has no trace events")
	}

	ctxData := byName["context.json"]
	for _, want := range []string{`"trigger": "alert"`, `"power-overshoot"`, `"decide_p99_ns"`} {
		if !strings.Contains(string(ctxData), want) {
			t.Fatalf("context.json missing %s:\n%s", want, ctxData)
		}
	}
}

func TestDumpAllSigquitOncePerTrigger(t *testing.T) {
	var mu sync.Mutex
	triggers := map[string]int{}
	rec := New(Options{OnDump: func(_ int, _ obs.RunMeta, trigger string, _ []BundleFile) {
		mu.Lock()
		triggers[trigger]++
		mu.Unlock()
	}})
	ro := rec.BeginRun(obs.RunMeta{Controller: "greedy", EpochS: 0.001})
	feedEpochs(ro, 100)
	ro.End(metrics.Summary{})

	rec.DumpAll("sigquit")
	rec.DumpAll("sigquit") // idempotent per trigger
	rec.DumpAll("failed")  // distinct trigger dumps again
	if triggers["sigquit"] != 1 || triggers["failed"] != 1 {
		t.Fatalf("dump counts: %v", triggers)
	}
}

func TestChainForwardsOnDownstreamStride(t *testing.T) {
	next := &stubRun{stride: 4}
	rec := New(Options{})
	ro := rec.Wrap(stubObserver{run: next}).BeginRun(obs.RunMeta{EpochS: 0.001})
	detailed := feedEpochs(ro, 100)
	alert := &obs.AlertEvent{Epoch: 50, Rule: "r"}
	ro.(obs.AlertObserver).ObserveAlert(alert)
	ro.(obs.FaultObserver).ObserveFault(&obs.FaultEvent{Epoch: 51})
	ro.End(metrics.Summary{})
	f := rec.runs[0]

	if len(next.epochs) != 25 {
		t.Fatalf("downstream saw %d epochs, want 25 (its own stride)", len(next.epochs))
	}
	for _, e := range next.epochs {
		if e%4 != 0 {
			t.Fatalf("downstream saw off-stride epoch %d", e)
		}
	}
	// Detail (island slices) must be built only on the downstream stride:
	// feedEpochs consults WantsEpochDetail like the harness does.
	if len(next.details) != len(next.epochs) || detailed != len(next.epochs) {
		t.Fatalf("detail on %d epochs, downstream got it on %d of its %d: want exactly its own", detailed, len(next.details), len(next.epochs))
	}
	f.mu.Lock()
	recorded, alerts, faults := f.epochs, f.alertN, f.faultN
	f.mu.Unlock()
	if recorded != 100 || alerts != 1 || faults != 1 || !f.ended() {
		t.Fatalf("recorder saw %d epochs, %d alerts, %d faults (ended %v), want every one", recorded, alerts, faults, f.ended())
	}
	if next.alerts != 1 || next.faults != 1 || !next.ended {
		t.Fatalf("events not forwarded: %+v", next)
	}
}

// TestSummaryMetrics: the judged metrics are the run's own summary, not a
// re-derivation from the epochs the recorder saw (which here disagree with
// it on every number); only the decide quantiles come from the recorder.
func TestSummaryMetrics(t *testing.T) {
	var got Summary
	rec := New(Options{OnRunEnd: func(_ int, s Summary) { got = s }})
	ro := rec.BeginRun(obs.RunMeta{Controller: "od-rl", Workload: "mixed", EpochS: 0.001})
	feedEpochs(ro, 100)
	rs := metrics.Summary{
		DurS: 0.5, Instr: 12e9, EnergyJ: 40, MeanW: 80, PeakW: 97.5,
		OverJ: 0.25, OverTimeS: 0.125, MaxTempK: 341.5,
	}
	ro.End(rs)

	if got.Epochs != 100 {
		t.Fatalf("summary epochs %d", got.Epochs)
	}
	want := map[string]float64{
		"bips": 24, "bips_per_w": 0.3, "mean_w": 80, "peak_w": 97.5,
		"max_temp_k": 341.5, "over_j": 0.25, "over_time_frac": 0.25,
	}
	for k, v := range want {
		if got.Metrics[k] != v {
			t.Errorf("%s = %g, want the summary's %g", k, got.Metrics[k], v)
		}
	}
	m := got.Metrics
	if m["decide_p50_ns"] <= 0 || m["decide_p99_ns"] < m["decide_p50_ns"] {
		t.Fatalf("decide quantiles: p50 %g p99 %g", m["decide_p50_ns"], m["decide_p99_ns"])
	}

	// A run with no measured window (zero measurement epochs) hands over
	// a summary with no duration: no metrics, rather than NaN throughput.
	ro = rec.BeginRun(obs.RunMeta{Controller: "od-rl", EpochS: 0.001})
	feedEpochs(ro, 10)
	ro.End(metrics.Summary{})
	if got.Epochs != 10 || got.Metrics != nil {
		t.Fatalf("unmeasured run: epochs %d, metrics %v", got.Epochs, got.Metrics)
	}
}

// TestDumpAllRacesEpochLoop is the -race guard for the SIGQUIT path: a
// dump from another goroutine must interleave safely with a run that is
// still observing epochs.
func TestDumpAllRacesEpochLoop(t *testing.T) {
	var mu sync.Mutex
	dumps := 0
	rec := New(Options{RingCap: 64, OnDump: func(_ int, _ obs.RunMeta, _ string, files []BundleFile) {
		mu.Lock()
		dumps++
		mu.Unlock()
		for _, f := range files {
			if f.Name == "flight/race/epochs.jsonl" {
				if _, err := ReadEpochsJSONL(f.Data); err != nil {
					t.Errorf("torn bundle: %v", err)
				}
			}
		}
	}})
	ro := rec.BeginRun(obs.RunMeta{EpochS: 0.001})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		feedEpochs(ro, 5000)
		ro.End(metrics.Summary{})
	}()
	rec.DumpAll("race")
	wg.Wait()
	rec.DumpAll("late")
	mu.Lock()
	defer mu.Unlock()
	if dumps == 0 {
		t.Fatal("no dumps")
	}
}

func TestKeepRunsEvictsOnlyFinished(t *testing.T) {
	rec := New(Options{KeepRuns: 2})
	live := rec.BeginRun(obs.RunMeta{Controller: "live"})
	feedEpochs(live, 10)
	for i := 0; i < 5; i++ {
		ro := rec.BeginRun(obs.RunMeta{Controller: "done"})
		feedEpochs(ro, 10)
		ro.End(metrics.Summary{})
	}
	rec.mu.Lock()
	var controllers []string
	for _, f := range rec.runs {
		controllers = append(controllers, f.meta.Controller)
	}
	rec.mu.Unlock()
	if len(controllers) > 3 {
		t.Fatalf("retained %d runs with KeepRuns=2 (+1 live): %v", len(controllers), controllers)
	}
	found := false
	for _, c := range controllers {
		if c == "live" {
			found = true
		}
	}
	if !found {
		t.Fatalf("live run evicted: %v", controllers)
	}
}

// TestAlertBundleEndsAtNamedEpoch wires the recorder the way sim.Run does
// (the monitor wrapping it) under a rule that holds from the first epoch:
// the alert arrives after the epoch it names, so the bundle's last frame is
// that epoch, and an alert on epoch 0 still writes a bundle.
func TestAlertBundleEndsAtNamedEpoch(t *testing.T) {
	for _, forEpochs := range []int{1, 3} {
		t.Run(fmt.Sprintf("for_epochs=%d", forEpochs), func(t *testing.T) {
			var bundles [][]BundleFile
			rec := New(Options{OnDump: func(_ int, _ obs.RunMeta, _ string, files []BundleFile) {
				bundles = append(bundles, files)
			}})
			mon := monitor.New(monitor.Options{Rules: []monitor.Rule{
				{Name: "always", Metric: "power_w", Op: monitor.OpGT, Threshold: 0, ForEpochs: forEpochs},
			}})
			feedEpochs(mon.Wrap(rec).BeginRun(obs.RunMeta{Controller: "pid", BudgetW: 95, EpochS: 0.001}), 10)

			alerts := mon.Runs()[0].Alerts
			if len(alerts) != 1 || alerts[0].Epoch != forEpochs-1 {
				t.Fatalf("alerts %+v, want one naming epoch %d", alerts, forEpochs-1)
			}
			if len(bundles) != 1 {
				t.Fatalf("%d bundles, want 1", len(bundles))
			}
			var events []obs.EpochEvent
			for _, f := range bundles[0] {
				if f.Name == "flight/alert/epochs.jsonl" {
					var err error
					if events, err = ReadEpochsJSONL(f.Data); err != nil {
						t.Fatal(err)
					}
				}
			}
			if len(events) == 0 || events[len(events)-1].Epoch != alerts[0].Epoch {
				t.Fatalf("bundle epochs %+v, want the last to be the alert's epoch %d", events, alerts[0].Epoch)
			}
		})
	}
}
