package obs

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/metrics"
)

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"obs.trace.decide_ns": "obs_trace_decide_ns",
		"run-health/alerts":   "run_health_alerts",
		"9lives":              "_9lives",
		"ok_name:sub":         "ok_name:sub",
	} {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

// checkExposition is a minimal validity parser for the text exposition
// format: every non-comment line must be `name[{labels}] value` with a
// parseable value, and every sample must be preceded by a TYPE line for
// its family.
func checkExposition(t *testing.T, body string) {
	t.Helper()
	typed := map[string]bool{}
	for ln, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" {
			t.Fatalf("line %d: empty line inside exposition", ln+1)
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE line %q", ln+1, line)
			}
			typed[parts[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value separator in %q", ln+1, line)
		}
		name, val := line[:sp], line[sp+1:]
		if val != "+Inf" && val != "-Inf" && val != "NaN" {
			if _, err := strconv.ParseFloat(val, 64); err != nil {
				t.Fatalf("line %d: unparseable value %q: %v", ln+1, val, err)
			}
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("line %d: unterminated label set in %q", ln+1, name)
			}
			name = name[:i]
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if fam, ok := strings.CutSuffix(name, suffix); ok && typed[fam] {
				family = fam
				break
			}
		}
		if !typed[family] {
			t.Fatalf("line %d: sample %q has no preceding TYPE line", ln+1, name)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("obs.trace.runs").Add(3)
	r.Gauge("monitor.power_w").Set(88.5)
	sk := r.Sketch("obs.trace.decide_ns")
	for _, v := range []float64{500, 2000, 2000, 5e7, 2e12} { // 2e12 clamps to the last bucket
		sk.Observe(v)
	}

	var b strings.Builder
	if err := WritePrometheus(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	checkExposition(t, body)

	for _, want := range []string{
		"# TYPE obs_trace_runs counter\nobs_trace_runs 3\n",
		"monitor_power_w 88.5",
		"# TYPE obs_trace_decide_ns histogram\n",
		`obs_trace_decide_ns_bucket{le="+Inf"} 5`,
		"obs_trace_decide_ns_sum 2.0000500045e+12\n",
		"obs_trace_decide_ns_count 5",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}

	// The finite le values rise and each counts the observations at or
	// below it; the value clamped from above the ceiling only reaches +Inf.
	var les []float64
	var cums []int64
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, `obs_trace_decide_ns_bucket{le="`)
		if !ok || strings.HasPrefix(rest, "+Inf") {
			continue
		}
		le, cum, _ := strings.Cut(rest, `"} `)
		v, err := strconv.ParseFloat(le, 64)
		if err != nil {
			t.Fatal(err)
		}
		n, err := strconv.ParseInt(cum, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		les, cums = append(les, v), append(cums, n)
	}
	if want := []int64{1, 3, 4}; !slices.Equal(cums, want) {
		t.Fatalf("cumulative counts %v at le %v, want %v", cums, les, want)
	}
	for i, v := range []float64{500, 2000, 5e7} {
		if les[i] < v || les[i] > v*sketchGamma || (i > 0 && les[i] <= les[i-1]) {
			t.Errorf("le %v: bucket %d does not hold %g at its upper edge", les, i, v)
		}
	}
}

// TestDecideExposition: the tracer's decide-latency sketch reaches /metrics
// as a Prometheus histogram whose le values rise to +Inf, and the +Inf
// count and _count are the number of sampled epochs.
func TestDecideExposition(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(NewWriterSink(discard{}), TracerOptions{Every: 3, Registry: reg})
	run := tr.BeginRun(RunMeta{Controller: "od-rl"})
	sampled := 0
	for e := 0; e < 100; e++ {
		if run.ShouldSample(e) {
			run.ObserveEpoch(&EpochEvent{Epoch: e, DecideNs: int64(1000 + 37*e*e)})
			sampled++
		}
	}
	run.End(metrics.Summary{})

	var b strings.Builder
	if err := WritePrometheus(&b, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	checkExposition(t, body)
	prev, last := math.Inf(-1), ""
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, `obs_trace_decide_ns_bucket{le="`)
		if !ok {
			continue
		}
		le, count, _ := strings.Cut(rest, `"} `)
		v, err := strconv.ParseFloat(le, 64)
		if err != nil {
			t.Fatal(err)
		}
		if v <= prev {
			t.Fatalf("le %s does not rise above %g:\n%s", le, prev, body)
		}
		prev, last = v, count
	}
	want := strconv.Itoa(sampled)
	if !math.IsInf(prev, 1) || last != want || !strings.Contains(body, "obs_trace_decide_ns_count "+want+"\n") {
		t.Fatalf("want the buckets to end at le=\"+Inf\" with _count %s:\n%s", want, body)
	}
}
