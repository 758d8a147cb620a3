package monitor

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// recObserver records what reaches the downstream observer, sampling every
// stride-th epoch like the JSONL tracer does.
type recObserver struct {
	stride  int
	epochs  []int
	alerts  []obs.AlertEvent
	faults  int
	ended   bool
	sampled int
}

func (r *recObserver) BeginRun(obs.RunMeta) obs.RunObserver { return (*recRun)(r) }

type recRun recObserver

func (r *recRun) ShouldSample(epoch int) bool { return epoch%r.stride == 0 }
func (r *recRun) ObserveEpoch(ev *obs.EpochEvent) {
	r.epochs = append(r.epochs, ev.Epoch)
	r.sampled++
}
func (r *recRun) ObserveAlert(ev *obs.AlertEvent) { r.alerts = append(r.alerts, *ev) }
func (r *recRun) ObserveFault(*obs.FaultEvent)    { r.faults++ }
func (r *recRun) End(metrics.Summary)             { r.ended = true }

func feedEpochs(ro obs.RunObserver, n int, fill func(e int, ev *obs.EpochEvent)) {
	for e := 0; e < n; e++ {
		if !ro.ShouldSample(e) {
			continue
		}
		ev := obs.EpochEvent{
			Epoch: e, TimeS: float64(e) * 1e-3,
			PowerW: 80, BudgetW: 90, IPS: 1e9, MaxTempK: 330, DecideNs: 5000,
		}
		if fill != nil {
			fill(e, &ev)
		}
		ro.ObserveEpoch(&ev)
	}
	ro.End(metrics.Summary{})
}

var testMeta = obs.RunMeta{Controller: "odrl", Workload: "mix", Cores: 64, BudgetW: 90, EpochS: 1e-3, Seed: 1}

func TestWrapSeesEveryEpochAndHonoursNextStride(t *testing.T) {
	rec := &recObserver{stride: 4}
	m := New(Options{})
	ro := m.Wrap(rec).BeginRun(testMeta)
	feedEpochs(ro, 100, nil)

	runs := m.Runs()
	if len(runs) != 1 || runs[0].Epochs != 100 || !runs[0].Done {
		t.Fatalf("runs = %+v", runs)
	}
	if runs[0].Store.Snapshot()[0].Epochs != 100 {
		t.Fatalf("store saw %d epochs, want all 100", runs[0].Store.Snapshot()[0].Epochs)
	}
	if rec.sampled != 25 {
		t.Fatalf("downstream saw %d epochs, want 25 (its own stride)", rec.sampled)
	}
	for _, e := range rec.epochs {
		if e%4 != 0 {
			t.Fatalf("downstream received off-stride epoch %d", e)
		}
	}
	if !rec.ended {
		t.Fatal("End not forwarded")
	}
}

func TestDefaultRulesFireOnSustainedOvershoot(t *testing.T) {
	rec := &recObserver{stride: 1}
	m := New(Options{})
	ro := m.Wrap(rec).BeginRun(testMeta)
	// 30 epochs at 5% over budget: sustained-overshoot (>2% for 20) fires.
	feedEpochs(ro, 30, func(e int, ev *obs.EpochEvent) {
		ev.PowerW = 94.5
		ev.OvershootW = 4.5
	})

	h := m.Runs()[0]
	if h.AlertCount < 1 {
		t.Fatal("sustained overshoot fired no alert")
	}
	if h.Alerts[0].Rule != "sustained-overshoot" {
		t.Fatalf("first alert = %+v", h.Alerts[0])
	}
	if len(rec.alerts) != h.AlertCount {
		t.Fatalf("downstream got %d alerts, monitor fired %d", len(rec.alerts), h.AlertCount)
	}
	if m.AlertsFired() != h.AlertCount {
		t.Fatalf("AlertsFired = %d, want %d", m.AlertsFired(), h.AlertCount)
	}

	var buf bytes.Buffer
	if err := m.WriteAlertSummary(&buf); err != nil {
		t.Fatalf("WriteAlertSummary: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "sustained-overshoot") || !strings.Contains(out, "odrl") {
		t.Fatalf("summary missing alert row:\n%s", out)
	}
}

func TestNanTelemetryRuleFiresImmediately(t *testing.T) {
	m := New(Options{})
	ro := m.BeginRun(testMeta)
	feedEpochs(ro, 3, func(e int, ev *obs.EpochEvent) {
		if e == 1 {
			ev.PowerW = nan()
		}
	})
	h := m.Runs()[0]
	if h.AlertCount != 1 || h.Alerts[0].Rule != "nan-telemetry" || h.Alerts[0].Epoch != 1 {
		t.Fatalf("alerts = %+v", h.Alerts)
	}
}

func nan() float64 { var z float64; return z / z }

func TestCustomRulesReplaceDefaults(t *testing.T) {
	m := New(Options{Rules: []Rule{
		{Name: "cold-chip", Metric: MetricMaxTempK, Op: OpLT, Threshold: 1000, ForEpochs: 1},
	}})
	ro := m.BeginRun(testMeta)
	feedEpochs(ro, 25, func(e int, ev *obs.EpochEvent) { ev.OvershootW = 50 }) // would trip defaults
	h := m.Runs()[0]
	if h.AlertCount != 1 || h.Alerts[0].Rule != "cold-chip" {
		t.Fatalf("alerts = %+v (custom rules should replace defaults)", h.Alerts)
	}
}

func TestRegistryAggregates(t *testing.T) {
	reg := obs.NewRegistry()
	m := New(Options{Registry: reg})
	ro := m.BeginRun(testMeta)
	ro.(obs.FaultObserver).ObserveFault(&obs.FaultEvent{Epoch: 0, Kind: "core_dead"})
	feedEpochs(ro, 10, nil)

	snap := reg.Snapshot()
	want := map[string]int64{"monitor.epochs": 10, "monitor.runs": 1, "monitor.faults_seen": 1}
	for name, v := range want {
		if got := snap.Counters[name]; got != v {
			t.Errorf("counter %s = %d, want %d", name, got, v)
		}
	}
	if got := snap.Gauges["monitor.power_w"]; got != 80 {
		t.Errorf("gauge monitor.power_w = %g, want 80", got)
	}
	if m.Runs()[0].Faults != 1 {
		t.Errorf("run faults = %d, want 1", m.Runs()[0].Faults)
	}
}

func TestWriteAlertSummaryEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := New(Options{}).WriteAlertSummary(&buf); err != nil {
		t.Fatalf("WriteAlertSummary: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("summary with no runs wrote %q", buf.String())
	}
}
