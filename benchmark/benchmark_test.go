package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

// lastLine decodes the result object the benchmark prints last.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return r
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func TestQuickSmokeAllWorkloads(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, traced := range []string{"0", "1"} {
		t.Run("trace="+traced, func(t *testing.T) {
			dir := t.TempDir()
			traceFile := filepath.Join(dir, "trace.json")
			args := []string{"-quick", "-seconds", "0.05", "-trace", traced, "-o", filepath.Join(dir, "report.json")}
			if traced == "1" {
				args = append(args, "-trace-out", traceFile)
			}
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			r := lastLine(t, stdout.String())
			if !r.Correct || r.Failed != 0 || r.Attempted < len(workloadNames) {
				t.Fatalf("result %+v, stderr:\n%s", r, stderr.String())
			}
			want := endToEnd
			if traced == "1" {
				want = perLayer
			}
			if len(r.Metrics) != len(want)*len(workloadNames) {
				t.Errorf("%d metrics, want %d per workload", len(r.Metrics), len(want))
			}
			for _, w := range workloadNames {
				for m, unit := range want {
					if v, ok := r.Metrics[w+"/"+m]; !ok || v.Unit != unit {
						t.Errorf("%s/%s = %+v, want unit %s", w, m, v, unit)
					}
				}
			}
			if traced == "0" {
				for _, w := range workloadNames {
					if v := r.Metrics[w+"/core_epochs_per_s"].Value; !(v > 0) {
						t.Errorf("%s throughput %g", w, v)
					}
				}
				return
			}
			b, err := os.ReadFile(traceFile)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []map[string]any `json:"traceEvents"`
			}
			if err := json.Unmarshal(b, &doc); err != nil {
				t.Fatalf("trace does not parse: %v", err)
			}
			if len(doc.TraceEvents) < 1000 {
				t.Fatalf("trace has %d events", len(doc.TraceEvents))
			}
		})
	}
}

func TestTracedLoopMatchesSimRun(t *testing.T) {
	base := liveOptions(7, 16, 0.1, 0.4)
	faulted := base
	plan := fault.Scaled(1)
	faulted.FaultPlan = &plan
	faulted.BudgetSchedule = []sim.BudgetStep{{AtS: 0.2, BudgetW: 12}, {AtS: 0.35, BudgetW: 20}}
	barrier := base
	barrier.Workload = "barrier"
	cases := []struct {
		name       string
		opts       sim.Options
		controller string
	}{
		{"plain", base, "od-rl"},
		{"fault+schedule", faulted, "od-rl"},
		{"barrier", barrier, "maxbips"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env, err := sim.EnvFor(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			c, err := sim.NewController(tc.controller, env)
			if err != nil {
				t.Fatal(err)
			}
			defer closeController(c)
			want, err := sim.Run(tc.opts, c)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer(0)
			d, err := runLoop(tr, tc.opts, tc.controller)
			if err != nil {
				t.Fatal(err)
			}
			wd, err := resultDigest(want)
			if err != nil {
				t.Fatal(err)
			}
			gd, err := resultDigest(d.res)
			if err != nil {
				t.Fatal(err)
			}
			if gd != wd {
				t.Fatalf("traced loop summary %+v\n differs from sim.Run %+v", d.res.Summary, want.Summary)
			}
			if tc.name == "fault+schedule" && d.faultEvents == 0 {
				t.Error("fault plan injected nothing; the case does not exercise the injector")
			}
			// Every epoch has exactly one step, decide and actuation span.
			kinds := map[spanKind]int{}
			for _, s := range tr.spans[d.first:d.last] {
				kinds[s.kind]++
				if s.end < s.start {
					t.Fatalf("span %q ends before it starts", s.name)
				}
			}
			warm, meas := tc.opts.Epochs()
			for _, k := range []spanKind{kindEpoch, kindStep, kindDecide, kindSetLevel} {
				if kinds[k] != warm+meas {
					t.Errorf("span kind %d recorded %d times, want %d", k, kinds[k], warm+meas)
				}
			}
		})
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// Reference values from Python: statistics.quantiles(xs, n=4) and
	// statistics.median(xs).
	cases := []struct {
		xs   []float64
		want dist
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, dist{Median: 5.5, Q1: 2.75, Q3: 8.25, N: 10}},
		{[]float64{1, 2}, dist{Median: 1.5, Q1: 0.75, Q3: 2.25, N: 2}},
		{[]float64{3, 1, 2}, dist{Median: 2, Q1: 1, Q3: 3, N: 3}},
		{[]float64{5, 1, 4, 2, 3}, dist{Median: 3, Q1: 1.5, Q3: 4.5, N: 5}},
		{[]float64{7}, dist{Median: 7, Q1: 7, Q3: 7, N: 1}},
		{nil, dist{}},
	}
	for _, tc := range cases {
		if got := summarize(tc.xs); got != tc.want {
			t.Errorf("summarize(%v) = %+v, want %+v", tc.xs, got, tc.want)
		}
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		return xs
	}
	if v, ok := tail(seq(1000), 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %g, %t; want 990, true", v, ok)
	}
	if _, ok := tail(seq(999), 0.99); ok {
		t.Error("p99 of 999 samples reported with only 9 beyond it")
	}
	if _, ok := tail(nil, 0.5); ok {
		t.Error("percentile of an empty sample reported")
	}
}

func TestSelfTimes(t *testing.T) {
	// run [0,100] ⊃ epoch [10,90] ⊃ {step [20,50], decide [50,80]};
	// decide ⊃ hold [60,70].
	spans := []span{
		{name: "sim.run", kind: kindRun, parent: -1, start: 0, end: 100},
		{name: "sim.epoch", kind: kindEpoch, parent: 0, start: 10, end: 90},
		{name: "manycore.step", kind: kindStep, parent: 1, start: 20, end: 50},
		{name: "baselines.maxbips.solve", kind: kindDecide, parent: 1, start: 50, end: 80},
		{name: "x.inner", kind: kindDecide, parent: 3, start: 60, end: 70},
	}
	got := selfTimes(spans)
	want := []int64{20, 20, 30, 20, 10}
	sum := int64(0)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] = %d, want %d", i, got[i], want[i])
		}
		sum += got[i]
	}
	if sum != spans[0].dur() {
		t.Errorf("self times sum to %d, root lasts %d", sum, spans[0].dur())
	}
	// The epoch's layer split adds back up to the epoch.
	byLayer := map[string]int64{}
	for i, s := range spans[1:] {
		byLayer[s.layer()] += got[i+1]
	}
	if byLayer["sim"]+byLayer["manycore"]+byLayer["baselines"]+byLayer["x"] != spans[1].dur() || byLayer["manycore"] != 30 {
		t.Errorf("epoch split %v over %d", byLayer, spans[1].dur())
	}
}
