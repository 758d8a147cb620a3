package obs

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// TestAlertRoundTrip: alerts emitted into the JSONL stream decode back with
// their rule identity and condition intact.
func TestAlertRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(NewWriterSink(&buf), TracerOptions{})
	run := tr.BeginRun(RunMeta{Controller: "od-rl"})
	ao, ok := run.(AlertObserver)
	if !ok {
		t.Fatal("runTracer does not implement AlertObserver")
	}
	ao.ObserveAlert(&AlertEvent{
		Epoch: 120, TimeS: 0.12, Rule: "sustained-overshoot",
		Metric: "overshoot_w", Op: ">", Threshold: 1.1, Value: 3.4, ForEpochs: 25,
	})
	run.End(metrics.Summary{})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := ReadRecords(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	var alert *Record
	for i := range recs {
		if recs[i].Type == "alert" {
			alert = &recs[i]
		}
	}
	if alert == nil {
		t.Fatalf("no alert record in stream:\n%s", buf.String())
	}
	a := alert.Alert
	if a.Rule != "sustained-overshoot" || a.Metric != "overshoot_w" || a.Op != ">" ||
		a.Threshold != 1.1 || a.Value != 3.4 || a.ForEpochs != 25 || a.Epoch != 120 {
		t.Fatalf("alert did not round-trip: %+v", a)
	}
}
