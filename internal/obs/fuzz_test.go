package obs

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// FuzzReadRecords: the JSONL trace reader must never panic, and every
// stream it accepts must decode to records with known types.
func FuzzReadRecords(f *testing.F) {
	// Seed corpus: a real emitted stream (run_start, epochs, a fault,
	// run_end), then malformed variants.
	var emitted bytes.Buffer
	tr := NewTracer(NewWriterSink(&emitted), TracerOptions{Every: 1})
	run := tr.BeginRun(RunMeta{Controller: "od-rl", Cores: 4, BudgetW: 40})
	run.ObserveEpoch(&EpochEvent{Epoch: 0, PowerW: 10, BudgetW: 40, DecideNs: 100})
	if fo, ok := run.(FaultObserver); ok {
		fo.ObserveFault(&FaultEvent{Epoch: 0, Kind: "core_dead", Core: 2})
	}
	if ao, ok := run.(AlertObserver); ok {
		ao.ObserveAlert(&AlertEvent{Epoch: 3, Rule: "sustained-overshoot", Metric: "overshoot_w", Op: ">", Threshold: 1, Value: 2, ForEpochs: 2})
	}
	run.End(metrics.Summary{})
	if err := tr.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(emitted.String())
	f.Add(`{"type":"run_start","run":1}`)
	f.Add(`{"type":"fault","run":1,"kind":"blackout","core":-1}`)
	f.Add(`{"type":"alert","run":1,"rule":"nan-telemetry","op":"nonfinite"}`)
	f.Add(`{"type":"mystery","run":1}`)
	f.Add(`{"type":"epoch","run":"not-a-number"}`)
	f.Add(`{}` + "\n" + `{"type":"run_end","run":1}`)
	f.Add("not json\n")

	valid := map[string]bool{"run_start": true, "epoch": true, "fault": true, "alert": true, "run_end": true}
	f.Fuzz(func(t *testing.T, data string) {
		recs, err := ReadRecords(strings.NewReader(data))
		if err != nil {
			return
		}
		for i, r := range recs {
			if !valid[r.Type] {
				t.Fatalf("record %d: accepted unknown type %q", i, r.Type)
			}
		}
	})
}
