package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/ledger"
	"repro/internal/scenario"
)

// TestMain points the run ledger at a throwaway directory so CLI tests
// never write .odrl/ into the package tree.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "odrl-run-ledger")
	if err != nil {
		panic(err)
	}
	os.Setenv(ledger.EnvDir, dir)
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// writeSpec drops a spec file into a temp dir and returns its path.
func writeSpec(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// tinySpecJSON is a comparison spec small enough for CLI tests.
const tinySpecJSON = `{
  "name": "cli tiny",
  "workload": "canneal",
  "controllers": ["pid"],
  "cores": 4,
  "budget_w": 8,
  "warmup_s": 0.05,
  "measure_s": 0.1,
  "seeds": [3],
  "workers": 1
}`

// TestRunExit2 covers every malformed-invocation path: all must exit 2
// before any simulation work, with a diagnostic on stderr.
func TestRunExit2(t *testing.T) {
	valid := writeSpec(t, "ok.json", tinySpecJSON)
	ldir := t.TempDir()
	cases := []struct {
		name string
		args []string
		want string // substring required on stderr ("" = usage is enough)
	}{
		{"no args", nil, "usage:"},
		{"two positional", []string{valid, valid}, "expected one spec file"},
		{"builtin plus file", []string{"-builtin", "F1", valid}, "mutually exclusive"},
		{"builtin plus list", []string{"-builtin", "F1", "-list"}, "mutually exclusive"},
		{"dry-run with csv", []string{"-dry-run", "-csv", valid}, "conflicts"},
		{"dry-run with o", []string{"-dry-run", "-o", "x.txt", valid}, "conflicts"},
		{"list with csv", []string{"-list", "-csv"}, "takes no other flags"},
		{"list with cache", []string{"-list", "-cache", "d"}, "takes no other flags"},
		{"unknown flag", []string{"-frobnicate", valid}, "flag provided but not defined"},
		{"negative j", []string{"-j", "-5", valid}, "-j -5: must not be negative"},
		{"missing file", []string{filepath.Join(t.TempDir(), "nope.json")}, "no such file"},
		{"unknown builtin", []string{"-builtin", "F99"}, "no builtin spec"},
		{
			"unknown spec field",
			[]string{writeSpec(t, "bad.json", `{"workloadd": "canneal"}`)},
			"unknown field",
		},
		{
			"invalid spec",
			[]string{writeSpec(t, "bad.json", `{"controllers": ["clippy"]}`)},
			"unknown controller",
		},
		{
			"controller twice",
			[]string{writeSpec(t, "bad.json", `{"controllers": ["od-rl", "maxbips", "od-rl"]}`)},
			`controller "od-rl" listed twice`,
		},
		{
			"benchmark twice",
			[]string{writeSpec(t, "bad.json", `{"benchmarks": ["canneal", "x264", "canneal"]}`)},
			`benchmark "canneal" listed twice`,
		},
		{
			"seed twice",
			[]string{writeSpec(t, "bad.json", `{"seeds": [2, 2]}`)},
			"seed 2 listed twice",
		},
		{
			"sweep seed no seed can take",
			[]string{"-ledger", ldir, writeSpec(t, "bad.json", `{"sweep": {"param": "seed", "values": [0, -3, 1.5]}}`)},
			"sweep seed value 0 is not a whole number",
		},
		{
			"trailing data",
			[]string{writeSpec(t, "bad.json", `{} {}`)},
			"trailing data",
		},
		{
			"quick override re-validated",
			// Valid on its own, but -j introduces no issue; instead the
			// spec becomes invalid only after the override is applied:
			// sweep seed specs reject an explicit seeds list.
			[]string{writeSpec(t, "bad.json", `{"seeds": [1, 2], "experiment": "F1"}`)},
			"experiment",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit = %d, want 2 (stderr: %s)", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr %q missing %q", stderr.String(), tc.want)
			}
		})
	}
	if recs, errs := ledger.Read(ldir); len(recs) != 0 || len(errs) != 0 {
		t.Errorf("a refused spec left %d ledger records (%v)", len(recs), errs)
	}
}

// TestRunList: -list prints one line per registered experiment and exits 0.
func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	ids := scenario.BuiltinIDs()
	if len(lines) != len(ids) {
		t.Fatalf("listed %d specs, registry has %d", len(lines), len(ids))
	}
	for i, id := range ids {
		if !strings.HasPrefix(lines[i], id) {
			t.Errorf("line %d = %q, want prefix %q", i, lines[i], id)
		}
	}
}

// TestRunDryRun: -dry-run prints exactly the canonical spec followed by its
// content hash, runs nothing, and exits 0.
func TestRunDryRun(t *testing.T) {
	path := writeSpec(t, "spec.json", tinySpecJSON)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-dry-run", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr.String())
	}
	spec, err := scenario.LoadBytes([]byte(tinySpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	canon, err := spec.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	want := string(canon) + "hash: " + hash + "\n"
	if stdout.String() != want {
		t.Errorf("dry-run output:\n%s--- want\n%s", stdout.String(), want)
	}
}

// TestRunQuickOverride: -dry-run shows that -quick folds into the spec (and
// so into its identity) before anything runs.
func TestRunQuickOverride(t *testing.T) {
	path := writeSpec(t, "spec.json", tinySpecJSON)
	var plain, quick bytes.Buffer
	if code := run([]string{"-dry-run", path}, &plain, &plain); code != 0 {
		t.Fatal(plain.String())
	}
	if code := run([]string{"-dry-run", "-quick", path}, &quick, &quick); code != 0 {
		t.Fatal(quick.String())
	}
	if !strings.Contains(quick.String(), `"quick": true`) {
		t.Errorf("-quick missing from canonical spec:\n%s", quick.String())
	}
	if plain.String() == quick.String() {
		t.Error("-quick did not change the canonical spec or hash")
	}
}

// TestRunRunnerFailure: a spec that validates but fails inside the
// simulation exits 1 (not 2) and caches nothing.
func TestRunRunnerFailure(t *testing.T) {
	path := writeSpec(t, "fail.json", `{
	  "workload": "canneal",
	  "controllers": ["pid"],
	  "cores": 4,
	  "warmup_s": 0.05,
	  "measure_s": 0.1,
	  "workers": 1,
	  "sweep": {"param": "budget", "values": [-5]}
	}`)
	cacheDir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-cache", cacheDir, path}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	entries, err := filepath.Glob(filepath.Join(cacheDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("failed run left cache entries: %v", entries)
	}
}

// TestRunBuiltinParity: the CLI's builtin path renders the same bytes the
// engine produces for the checked-in spec — no formatting drift in main.
func TestRunBuiltinParity(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-builtin", "T1", "-quick", "-j", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr.String())
	}
	spec, err := scenario.Builtin("T1")
	if err != nil {
		t.Fatal(err)
	}
	spec.Quick = true
	spec.Workers = 1
	tbl, _, err := (&scenario.Engine{}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if _, err := tbl.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	if stdout.String() != want.String() {
		t.Errorf("CLI output differs from engine table:\n--- cli\n%s--- engine\n%s", stdout.String(), want.String())
	}
}

// TestRunNovelSpecWithCache is the acceptance scenario: a novel spec
// combining a non-default platform, a workload, a fault plan and alert
// rules runs end-to-end; re-running it against the same cache (at a
// different worker count) is a cache hit with byte-identical output.
func TestRunNovelSpecWithCache(t *testing.T) {
	path := writeSpec(t, "novel.json", `{
	  "name": "ntc canneal under faults",
	  "platform": "manycore-ntc",
	  "workload": "canneal",
	  "controllers": ["pid", "greedy"],
	  "cores": 8,
	  "budget_w": 12,
	  "warmup_s": 0.05,
	  "measure_s": 0.1,
	  "seeds": [7],
	  "fault_plan": {"seed": 11, "dead_core_frac": 0.25},
	  "alert_rules": [
	    {"name": "budget-overshoot", "metric": "power_w", "op": ">", "threshold": 14, "for_epochs": 2}
	  ]
	}`)
	cacheDir := t.TempDir()

	var out1, err1 bytes.Buffer
	if code := run([]string{"-cache", cacheDir, "-j", "1", path}, &out1, &err1); code != 0 {
		t.Fatalf("first run exit = %d, stderr: %s", code, err1.String())
	}
	if strings.Contains(err1.String(), "cache hit") {
		t.Fatalf("first run claimed a cache hit: %s", err1.String())
	}
	for _, col := range []string{"faults", "alerts"} {
		if !strings.Contains(out1.String(), col) {
			t.Errorf("novel-spec table missing %q column:\n%s", col, out1.String())
		}
	}

	var out2, err2 bytes.Buffer
	if code := run([]string{"-cache", cacheDir, "-j", "4", path}, &out2, &err2); code != 0 {
		t.Fatalf("second run exit = %d, stderr: %s", code, err2.String())
	}
	if !strings.Contains(err2.String(), "cache hit") {
		t.Fatalf("second run missed the cache: %s", err2.String())
	}
	if out1.String() != out2.String() {
		t.Errorf("cached rerun not byte-identical:\n--- first\n%s--- second\n%s", out1.String(), out2.String())
	}
}

// TestRunLedgerRecord: a real execution appends exactly one run record
// carrying the scenario join key (spec hash) and cache-hit flag, -no-ledger
// leaves no trace, and a failed run is recorded as failed.
func TestRunLedgerRecord(t *testing.T) {
	path := writeSpec(t, "spec.json", tinySpecJSON)
	ldir := t.TempDir()
	cacheDir := t.TempDir()

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-ledger", ldir, "-cache", cacheDir, path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr.String())
	}
	recs, errs := ledger.Read(ldir)
	if len(errs) > 0 || len(recs) != 1 {
		t.Fatalf("records=%d errs=%v", len(recs), errs)
	}
	r := recs[0]
	if r.Tool != "odrl-run" || r.Status != ledger.StatusOK {
		t.Fatalf("record: tool=%q status=%q", r.Tool, r.Status)
	}
	if len(r.Scenarios) != 1 || r.Scenarios[0].SpecHash == "" || r.Scenarios[0].CacheHit {
		t.Fatalf("scenarios: %+v", r.Scenarios)
	}
	if len(r.Runs) == 0 || r.Runs[0].Epochs == 0 {
		t.Fatalf("no run summaries observed: %+v", r.Runs)
	}

	// The cached rerun still records a run, marked as a cache hit.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-ledger", ldir, "-cache", cacheDir, path}, &stdout, &stderr); code != 0 {
		t.Fatalf("rerun exit = %d, stderr: %s", code, stderr.String())
	}
	recs, errs = ledger.Read(ldir)
	if len(errs) > 0 || len(recs) != 2 {
		t.Fatalf("after rerun: records=%d errs=%v", len(recs), errs)
	}
	if !recs[1].Scenarios[0].CacheHit {
		t.Fatalf("rerun not marked cache hit: %+v", recs[1].Scenarios)
	}
	if recs[0].Scenarios[0].SpecHash != recs[1].Scenarios[0].SpecHash {
		t.Fatal("spec hash join key differs between identical runs")
	}

	// -no-ledger must leave the directory untouched.
	before := len(recs)
	if code := run([]string{"-ledger", ldir, "-no-ledger", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("no-ledger exit = %d, stderr: %s", code, stderr.String())
	}
	recs, _ = ledger.Read(ldir)
	if len(recs) != before {
		t.Fatalf("-no-ledger still appended: %d -> %d", before, len(recs))
	}

	// A failing run is recorded with status=failed and the error text.
	bad := writeSpec(t, "fail.json", `{
	  "workload": "canneal", "controllers": ["pid"], "cores": 4,
	  "warmup_s": 0.05, "measure_s": 0.1, "workers": 1,
	  "sweep": {"param": "budget", "values": [-5]}
	}`)
	if code := run([]string{"-ledger", ldir, bad}, &stdout, &stderr); code != 1 {
		t.Fatalf("bad run exit = %d, stderr: %s", code, stderr.String())
	}
	recs, errs = ledger.Read(ldir)
	if len(errs) > 0 || len(recs) != before+1 {
		t.Fatalf("after failure: records=%d errs=%v", len(recs), errs)
	}
	last := recs[len(recs)-1]
	if last.Status != ledger.StatusFailed || last.Error == "" {
		t.Fatalf("failed run record: status=%q error=%q", last.Status, last.Error)
	}
}

// TestRunCSVAndOutputFile: -csv and -o route the same table through the
// CSV writer and to a file.
func TestRunCSVAndOutputFile(t *testing.T) {
	path := writeSpec(t, "spec.json", tinySpecJSON)
	outPath := filepath.Join(t.TempDir(), "out.csv")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-csv", "-o", outPath, path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("-o still wrote to stdout: %q", stdout.String())
	}
	b, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(b), "seed,workload,controller") {
		t.Errorf("CSV header = %q", strings.SplitN(string(b), "\n", 2)[0])
	}
}

func TestSnapshotEveryNeedsArtifacts(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-snapshot-every", "5", "-no-ledger"}, &stdout, &stderr)
	if code != 2 || !strings.Contains(stderr.String(), "-snapshot-every needs the run ledger") {
		t.Fatalf("exit %d, want 2 with a usage error\nstderr: %s", code, stderr.String())
	}
	// Snapshots live in the ledger record; the old -artifacts directory flag is gone.
	stderr.Reset()
	if code := run([]string{"-artifacts", "x", "-no-ledger"}, &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), "flag provided but not defined") {
		t.Fatalf("-artifacts: exit %d, want 2 as an unknown flag\nstderr: %s", code, stderr.String())
	}
}

// TestSummariesReachInjectedStderr: the run-health and learning summaries
// of a sweep spec are written to the stderr the run seam is given, not the
// process's.
func TestSummariesReachInjectedStderr(t *testing.T) {
	path := writeSpec(t, "sweep.json", `{
	  "controllers": ["od-rl"],
	  "cores": 16,
	  "warmup_s": 0.05,
	  "measure_s": 0.2,
	  "sweep": {"param": "budget", "values": [20, 30]}
	}`)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-monitor", "-learn", "-no-ledger", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	for _, want := range []string{"run-health summary:", "learn: run"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr missing %q:\n%s", want, stderr.String())
		}
	}
}

// TestMonitorSeesFaultedSpecRuns: a faulted spec carries a per-run monitor
// of its own for the faults/alerts columns; -monitor must still see every
// run of it, so the run-health summary lists one row per table row.
func TestMonitorSeesFaultedSpecRuns(t *testing.T) {
	path := writeSpec(t, "faulty.json", `{
	  "workload": "canneal",
	  "controllers": ["pid", "greedy"],
	  "cores": 4,
	  "budget_w": 8,
	  "warmup_s": 0.05,
	  "measure_s": 0.1,
	  "seeds": [3],
	  "fault_plan": {"seed": 11, "dead_core_frac": 0.25}
	}`)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-monitor", "-no-ledger", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	_, summary, ok := strings.Cut(stderr.String(), "run-health summary:\n")
	if !ok {
		t.Fatalf("no run-health summary on stderr:\n%s", stderr.String())
	}
	// One row per run, in the order the runs began; the header and the
	// fired-alert lines do not start with a run number.
	var controllers []string
	for _, line := range strings.Split(summary, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		if _, err := strconv.Atoi(fields[0]); err == nil {
			controllers = append(controllers, fields[1])
		}
	}
	slices.Sort(controllers)
	if !slices.Equal(controllers, []string{"greedy", "pid"}) {
		t.Errorf("run-health summary rows name %v, want the spec's runs greedy and pid:\n%s", controllers, summary)
	}
}

// TestPerRunAlertsReachSessionLayers: a spec's alert rules run in a
// per-run monitor. With -monitor the session's monitor watches the run too
// (here with a rule that never fires), and the per-run monitor's alert must
// still reach the session's tracer, flight recorder and ledger record: one
// alert record right after the epoch record it names, a post-mortem bundle
// whose last epoch is that epoch, and an alert count of 1. The recorder's
// notice of that bundle reaches the stderr run was given.
func TestPerRunAlertsReachSessionLayers(t *testing.T) {
	path := writeSpec(t, "always.json", `{
	  "workload": "canneal", "controllers": ["pid"], "cores": 4, "budget_w": 8,
	  "warmup_s": 0.05, "measure_s": 0.1, "seeds": [3], "workers": 1,
	  "alert_rules": [{"name": "always", "metric": "power_w", "op": ">", "threshold": 0, "for_epochs": 3}]
	}`)
	never := writeSpec(t, "never.json", `[{"name": "never", "metric": "power_w", "op": "<", "threshold": 0, "for_epochs": 1}]`)
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	ldir := t.TempDir()
	var stdout, stderr bytes.Buffer
	args := []string{"-monitor", "-alert-rules", never, "-trace-events", trace, "-trace-every", "1", "-ledger", ldir, path}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}

	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := obs.ReadRecords(f)
	if err != nil {
		t.Fatal(err)
	}
	var alerts []int
	for i, r := range recs {
		if r.Type != "alert" {
			continue
		}
		alerts = append(alerts, r.Alert.Epoch)
		if r.Alert.Rule != "always" || r.Alert.Epoch != 2 || i == 0 || recs[i-1].Type != "epoch" || recs[i-1].Event.Epoch != 2 {
			t.Errorf("alert record %d (%+v) does not follow the epoch record it names", i, r.Alert)
		}
	}
	if len(alerts) != 1 {
		t.Fatalf("trace holds alerts at epochs %v, want the per-run monitor's one", alerts)
	}

	lrecs, errs := ledger.Read(ldir)
	if len(errs) > 0 || len(lrecs) != 1 {
		t.Fatalf("records=%d errs=%v", len(lrecs), errs)
	}
	rec := lrecs[0]
	if rec.Alerts != 1 || len(rec.Runs) != 1 || rec.Runs[0].Alerts != 1 {
		t.Fatalf("ledger record alerts %d, runs %+v: want 1", rec.Alerts, rec.Runs)
	}
	bundle, err := os.ReadFile(filepath.Join(ldir, ledger.RunsDirName, rec.ID, "run001", "flight", "alert", "epochs.jsonl"))
	if err != nil {
		t.Fatalf("no post-mortem bundle: %v", err)
	}
	frames, err := flight.ReadEpochsJSONL(bundle)
	if err != nil || len(frames) == 0 || frames[len(frames)-1].Epoch != 2 {
		t.Fatalf("bundle frames %+v (%v), want the last at the alert's epoch 2", frames, err)
	}
	notice := "flight: alert post-mortem for run 1 -> " + filepath.Join(ldir, ledger.RunsDirName, rec.ID, "run001", "flight") + "/"
	if !strings.Contains(stderr.String(), notice) {
		t.Errorf("stderr lacks the post-mortem notice %q:\n%s", notice, stderr.String())
	}
}

// TestPerfettoCoversMonitoredSpecs: a spec with a fault plan or alert
// rules runs each of its runs under a monitor of its own, and -perfetto
// must still write the runs' OD-RL phase spans. The session's one span
// ring is the flight recorder's with the ledger on and the session's own
// with it off.
func TestPerfettoCoversMonitoredSpecs(t *testing.T) {
	const base = `"workload": "canneal", "controllers": ["od-rl"], "cores": 4, "budget_w": 8,
	  "warmup_s": 0.05, "measure_s": 0.1, "seeds": [3], "workers": 1`
	specs := []struct{ name, body string }{
		{"fault plan", `{` + base + `, "fault_plan": {"seed": 11, "dead_core_frac": 0.25}}`},
		{"alert rules", `{` + base + `, "alert_rules": [{"name": "hot", "metric": "power_w", "op": ">", "threshold": 1e6}]}`},
	}
	for _, sp := range specs {
		for _, ledgerArgs := range [][]string{{"-no-ledger"}, {"-ledger", t.TempDir()}} {
			t.Run(sp.name+" "+ledgerArgs[0], func(t *testing.T) {
				out := filepath.Join(t.TempDir(), "spans.json")
				args := append([]string{"-perfetto", out}, ledgerArgs...)
				args = append(args, writeSpec(t, "spec.json", sp.body))
				var stdout, stderr bytes.Buffer
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
				}
				data, err := os.ReadFile(out)
				if err != nil {
					t.Fatal(err)
				}
				var trace struct {
					TraceEvents []struct {
						Ph string `json:"ph"`
					} `json:"traceEvents"`
				}
				if err := json.Unmarshal(data, &trace); err != nil {
					t.Fatalf("perfetto file is not trace JSON: %v", err)
				}
				spans := 0
				for _, ev := range trace.TraceEvents {
					if ev.Ph == "X" {
						spans++
					}
				}
				if spans == 0 {
					t.Fatalf("perfetto file holds no spans:\n%s", data)
				}
			})
		}
	}
}

// TestFailingClaimsExit1: with no state-of-the-art baseline in the grid,
// C2 and C3 have nothing to beat and fail on both quick seeds. The table is
// still printed in full, then the run exits 1 naming each failing claim and
// its seeds. The failing table is cached like any other, so a rerun is a
// cache hit that exits the same way.
func TestFailingClaimsExit1(t *testing.T) {
	path := writeSpec(t, "claims.json", `{"experiment": "CLAIMS", "controllers": ["od-rl", "greedy"], "quick": true}`)
	cacheDir := t.TempDir()
	var first string
	for i, wantHit := range []bool{false, true} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-cache", cacheDir, "-no-ledger", path}, &stdout, &stderr); code != 1 {
			t.Fatalf("run %d: exit %d, want 1\nstdout: %s\nstderr: %s", i, code, stdout.String(), stderr.String())
		}
		for _, want := range []string{"C2 FAIL on seeds 1, 2", "C3 FAIL on seeds 1, 2"} {
			if !strings.Contains(stderr.String(), want) {
				t.Errorf("run %d: stderr does not name %q:\n%s", i, want, stderr.String())
			}
		}
		if strings.Contains(stderr.String(), "C1 FAIL") || strings.Contains(stderr.String(), "C4 FAIL") {
			t.Errorf("run %d: C1 or C4 failed:\n%s", i, stderr.String())
		}
		if hit := strings.Contains(stderr.String(), "cache hit"); hit != wantHit {
			t.Errorf("run %d: cache hit %v, want %v", i, hit, wantHit)
		}
		if i == 0 {
			first = stdout.String()
		} else if stdout.String() != first {
			t.Errorf("cached table differs:\n--- first\n%s--- cached\n%s", first, stdout.String())
		}
	}
	if !strings.HasPrefix(first, "== CLAIMS: ") || strings.Count(first, "\nC") != 4 {
		t.Errorf("stdout is not the whole claims table:\n%s", first)
	}
}
