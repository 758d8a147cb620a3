package ledger

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// TestCLIContract is the ledger contract: every registered CLI run path —
// success and failure — emits exactly one valid, decodable, hash-verified
// run record through the shared glue.
func TestCLIContract(t *testing.T) {
	for _, tool := range RegisteredTools() {
		for _, fail := range []bool{false, true} {
			name := tool
			if fail {
				name += "/failed"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				c := StartCLI(tool, []string{"-quick"}, dir, false, io.Discard)
				if c == nil {
					t.Fatal("session disabled unexpectedly")
				}
				// Drive one observed run through the glue's flight recorder,
				// the way sim.Run does.
				ro := c.WrapObserver(nil).BeginRun(obs.RunMeta{
					Controller: "od-rl", Workload: "mixed", Cores: 64, BudgetW: 90, EpochS: 1e-3, Seed: 7,
				})
				for e := 0; e < 10; e++ {
					ro.ShouldSample(e)
					ro.ObserveEpoch(&obs.EpochEvent{Epoch: e, PowerW: 88, BudgetW: 90, IPS: 40e9, DecideNs: 1500})
				}
				ro.End(metrics.Summary{DurS: 0.5, Instr: 20e9, EnergyJ: 44, MeanW: 88, PeakW: 88})
				var runErr error
				if fail {
					runErr = errors.New("synthetic failure")
				}
				c.Finish(runErr)
				c.Finish(runErr) // idempotent: the deferred + explicit call pattern

				recs, errs := Read(dir)
				if len(errs) > 0 {
					t.Fatalf("invalid records: %v", errs)
				}
				if len(recs) != 1 {
					t.Fatalf("got %d records, want exactly 1", len(recs))
				}
				r := recs[0]
				if r.Tool != tool {
					t.Fatalf("tool %q, want %q", r.Tool, tool)
				}
				if len(r.Runs) != 1 || r.Runs[0].Epochs != 10 || r.Runs[0].Metrics["bips"] != 40 {
					t.Fatalf("run summary: %+v", r.Runs)
				}
				if r.WallS < 0 || r.Start == "" || r.Host.GoVersion == "" {
					t.Fatalf("stamps: %+v", r)
				}
				wantStatus, wantDump := StatusOK, false
				if fail {
					wantStatus, wantDump = StatusFailed, true
				}
				if r.Status != wantStatus {
					t.Fatalf("status %q, want %q", r.Status, wantStatus)
				}
				// A failed run must leave a post-mortem bundle in the run dir.
				gotDump := false
				for _, a := range r.Artifacts {
					if strings.Contains(a.Name, "flight/failed/epochs.jsonl") {
						gotDump = true
						path := filepath.Join(dir, RunsDirName, r.ID, filepath.FromSlash(a.Name))
						if _, err := os.Stat(path); err != nil {
							t.Fatalf("artifact pointer dangles: %v", err)
						}
					}
				}
				if gotDump != wantDump {
					t.Fatalf("failure dump present=%v, want %v (artifacts: %+v)", gotDump, wantDump, r.Artifacts)
				}
			})
		}
	}
}

// TestToolRegistryMatchesCmdTree pins the registry to the cmd/ tree:
// every binary except odrl-obs writes run records, and a new cmd must
// either register or be exempted here explicitly.
func TestToolRegistryMatchesCmdTree(t *testing.T) {
	entries, err := os.ReadDir("../../../cmd")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, tool := range RegisteredTools() {
		want[tool] = true
	}
	seen := map[string]bool{}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		seen[name] = true
		if name == "odrl-obs" {
			// The observatory reads the ledger; it records no runs about
			// itself (watching the watcher adds a record per query).
			if slices.Contains(RegisteredTools(), name) {
				t.Fatalf("odrl-obs must not be a ledger-writing tool")
			}
			continue
		}
		if !slices.Contains(RegisteredTools(), name) {
			t.Errorf("cmd/%s is not in ledger.RegisteredTools(): register it (or exempt it here with a reason)", name)
		}
	}
	for tool := range want {
		if !seen[tool] {
			t.Errorf("registered tool %q has no cmd/%s directory", tool, tool)
		}
	}
}

func TestStartCLIDisabled(t *testing.T) {
	if c := StartCLI("odrl", nil, t.TempDir(), true, io.Discard); c != nil {
		t.Fatal("-no-ledger must disable the session")
	}
	var c *CLI
	// The nil session must be inert across the whole surface.
	if c.WrapObserver(nil) != nil || c.Recorder() != nil || c.RunID() != "" || c.Dir() != "" {
		t.Fatal("nil CLI not inert")
	}
	c.RecordScenario("T1", "hash", "v1", false)
	c.AddBenchPoint("flight", "case", "overhead_frac", 0.01)
	c.AddArtifact("x", nil)
	c.Finish(nil)
}

func TestResolveDir(t *testing.T) {
	t.Setenv(EnvDir, "")
	if got := ResolveDir("explicit"); got != "explicit" {
		t.Fatal(got)
	}
	if got := ResolveDir(""); got != DefaultDir {
		t.Fatal(got)
	}
	t.Setenv(EnvDir, "/tmp/env-ledger")
	if got := ResolveDir(""); got != "/tmp/env-ledger" {
		t.Fatal(got)
	}
	if got := ResolveDir("explicit"); got != "explicit" {
		t.Fatal(got)
	}
}

func TestCLIScenarioAndBench(t *testing.T) {
	dir := t.TempDir()
	c := StartCLI("odrl-bench", []string{"-experiment", "T1"}, dir, false, io.Discard)
	c.RecordScenario("T1", "cafe0123", "odrl-scenario-v1", true)
	c.AddBenchPoint("flight", "od-rl/64c", "overhead_frac", 0.012)
	c.AddArtifact("BENCH_flight.json", []byte(`{"ok":true}`))
	c.Finish(nil)

	recs, errs := Read(dir)
	if len(errs) > 0 || len(recs) != 1 {
		t.Fatalf("recs=%d errs=%v", len(recs), errs)
	}
	r := recs[0]
	if len(r.Scenarios) != 1 || !r.Scenarios[0].CacheHit || r.Scenarios[0].SpecHash != "cafe0123" {
		t.Fatalf("scenarios: %+v", r.Scenarios)
	}
	if len(r.Bench) != 1 || r.Bench[0].Metric != "overhead_frac" {
		t.Fatalf("bench: %+v", r.Bench)
	}
	if len(r.Artifacts) != 1 || r.Artifacts[0].Name != "BENCH_flight.json" {
		t.Fatalf("artifacts: %+v", r.Artifacts)
	}
}
