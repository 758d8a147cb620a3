package experiments

import (
	"bytes"
	"testing"
)

// checkOverheadReport smoke-checks one layer's overhead report: both legs
// of every case measured, host-stamped, valid JSON out. It runs a cheap
// spec (2 reps, short legs) so the check stays fast under the race
// detector; the ceilings and the full 15-rep protocol live in the
// odrl-bench gate, since wall-clock thresholds are too flaky for unit
// tests.
func checkOverheadReport(t *testing.T, layer string, specs []overheadSpec) {
	t.Helper()
	if testing.Short() {
		t.Skip("wall-clock benchmark")
	}
	rep, err := benchOverhead(layer, 2, specs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Layer != layer || len(rep.Cases) != len(specs) {
		t.Fatalf("report for %q with %d cases, want %q with %d", rep.Layer, len(rep.Cases), layer, len(specs))
	}
	for _, c := range rep.Cases {
		if c.OffCPUS <= 0 || c.OnCPUS <= 0 || c.Epochs <= 0 {
			t.Fatalf("unmeasured case %+v", c)
		}
	}
	if rep.GoVersion == "" || rep.HostCPUs <= 0 {
		t.Fatalf("missing host stamp: %+v", rep.Host)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"overhead_frac", "off_cpu_s", "on_cpu_s", "go_version"} {
		if !bytes.Contains(buf.Bytes(), []byte(field)) {
			t.Fatalf("report JSON missing %s:\n%s", field, buf.String())
		}
	}
}

func TestBenchMonitorReport(t *testing.T) {
	checkOverheadReport(t, "monitor", []overheadSpec{
		{"epoch-loop-greedy-64c", "greedy", 64, 2},
		{"epoch-loop-odrl-64c", "od-rl", 64, 1},
	})
}

func TestBenchLearnReport(t *testing.T) {
	checkOverheadReport(t, "learn", []overheadSpec{
		{"epoch-loop-odrl-64c", "od-rl", 64, 1},
		{"epoch-loop-odrl-16c", "od-rl", 16, 2},
	})
}

func TestBenchFlightReport(t *testing.T) {
	checkOverheadReport(t, "flight", []overheadSpec{
		{"epoch-loop-greedy-64c", "greedy", 64, 2},
		{"epoch-loop-odrl-64c", "od-rl", 64, 1},
	})
}

func TestBenchOverheadUnknownLayer(t *testing.T) {
	if _, err := BenchOverhead("tracer"); err == nil {
		t.Fatal("unknown layer accepted")
	}
}
