package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// TestTracerRoundTrip emits a run through the tracer and parses it back,
// proving the JSONL schema survives a write→read cycle unchanged.
func TestTracerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	reg := NewRegistry()
	tr := NewTracer(NewWriterSink(&buf), TracerOptions{Every: 1, Registry: reg})

	meta := RunMeta{
		Controller: "od-rl", Workload: "mix", Cores: 16,
		BudgetW: 90, EpochS: 1e-3, Seed: 7,
	}
	run := tr.BeginRun(meta)
	events := []EpochEvent{
		{Epoch: 0, TimeS: 0.001, PowerW: 20.5, BudgetW: 90, MaxTempK: 320.25,
			IslandPowerW: []float64{10.25, 10.25}, LevelHist: []int{8, 8}, DecideNs: 1234},
		{Epoch: 1, TimeS: 0.002, PowerW: 95.0, BudgetW: 90, OvershootW: 5.0,
			MaxTempK: 331, IslandPowerW: []float64{50, 45}, LevelHist: []int{0, 16}, DecideNs: 987},
	}
	for i := range events {
		if !run.ShouldSample(events[i].Epoch) {
			t.Fatalf("stride-1 tracer refused epoch %d", events[i].Epoch)
		}
		run.ObserveEpoch(&events[i])
	}
	run.End(metrics.Summary{})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4 (run_start + 2 epochs + run_end)", len(recs))
	}
	if recs[0].Type != "run_start" || recs[0].Meta != meta {
		t.Errorf("run_start = %+v, want meta %+v", recs[0], meta)
	}
	for i, want := range events {
		got := recs[1+i]
		if got.Type != "epoch" || got.Run != recs[0].Run {
			t.Errorf("record %d: type=%q run=%d", i, got.Type, got.Run)
		}
		if !reflect.DeepEqual(got.Event, want) {
			t.Errorf("epoch %d round trip:\n got %+v\nwant %+v", i, got.Event, want)
		}
	}
	end := recs[3]
	if end.Type != "run_end" || end.Epochs != 2 || end.Sampled != 2 {
		t.Errorf("run_end = %+v, want epochs=2 sampled=2", end)
	}

	s := reg.Snapshot()
	if s.Counters["obs.trace.runs"] != 1 || s.Counters["obs.trace.samples"] != 2 {
		t.Errorf("registry counters = %v", s.Counters)
	}
	if h := s.Histograms["obs.trace.decide_ns"]; h.Count != 2 || h.Sum != 1234+987 {
		t.Errorf("decide histogram = %+v", h)
	}
}

// TestTracerDecimation checks the stride gate: only epochs divisible by
// Every sample.
func TestTracerDecimation(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(NewWriterSink(&buf), TracerOptions{Every: 7})
	run := tr.BeginRun(RunMeta{Controller: "x"})
	sampled := 0
	for e := 0; e < 100; e++ {
		if run.ShouldSample(e) {
			if e%7 != 0 {
				t.Errorf("sampled off-stride epoch %d", e)
			}
			run.ObserveEpoch(&EpochEvent{Epoch: e})
			sampled++
		}
	}
	run.End(metrics.Summary{})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if want := 15; sampled != want { // ceil(100/7)
		t.Errorf("sampled %d epochs, want %d", sampled, want)
	}
	recs, err := ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	last := recs[len(recs)-1]
	if last.Sampled != sampled {
		t.Errorf("run_end sampled = %d, want %d", last.Sampled, sampled)
	}
}

// TestTracerConcurrentRuns interleaves two runs; every line must still be
// valid JSON attributable to its run.
func TestTracerConcurrentRuns(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(NewWriterSink(&buf), TracerOptions{})
	a := tr.BeginRun(RunMeta{Controller: "a"})
	b := tr.BeginRun(RunMeta{Controller: "b"})
	a.ObserveEpoch(&EpochEvent{Epoch: 0, PowerW: 1})
	b.ObserveEpoch(&EpochEvent{Epoch: 0, PowerW: 2})
	a.End(metrics.Summary{})
	b.End(metrics.Summary{})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	byRun := map[int64]int{}
	for _, r := range recs {
		byRun[r.Run]++
	}
	if len(byRun) != 2 || byRun[1] != 3 || byRun[2] != 3 {
		t.Errorf("records per run = %v, want 3 each for runs 1 and 2", byRun)
	}
}

func TestNopObserver(t *testing.T) {
	run := Nop().BeginRun(RunMeta{})
	for e := 0; e < 10; e++ {
		if run.ShouldSample(e) {
			t.Fatalf("nop observer sampled epoch %d", e)
		}
	}
	run.End(metrics.Summary{})
}

func TestReadRecordsRejectsGarbage(t *testing.T) {
	if _, err := ReadRecords(strings.NewReader("not json\n")); err == nil {
		t.Error("garbage line accepted")
	}
	if _, err := ReadRecords(strings.NewReader(`{"type":"mystery","run":1}` + "\n")); err == nil {
		t.Error("unknown record type accepted")
	}
}

func TestLogEvent(t *testing.T) {
	var buf bytes.Buffer
	if err := LogEvent(&buf, "run-config", "seed", uint64(42), "cores", 64, "budget_w", 90.5); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("log line is not JSON: %v", err)
	}
	if m["event"] != "run-config" {
		t.Errorf("event = %v", m["event"])
	}
	if v, ok := m["seed"].(float64); !ok || v != 42 {
		t.Errorf("seed = %v", m["seed"])
	}
	if v := m["budget_w"].(float64); math.Abs(v-90.5) > 0 {
		t.Errorf("budget_w = %v", v)
	}
	if !strings.HasSuffix(buf.String(), "\n") {
		t.Error("log line missing trailing newline")
	}

	buf.Reset()
	if err := LogEvent(&buf, "odd", "only-key"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "!BADKEY") {
		t.Errorf("odd kv not flagged: %s", buf.String())
	}
}
