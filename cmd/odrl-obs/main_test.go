package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/ledger"
)

// appendRec writes one synthetic run record the way a CLI session would.
func appendRec(t *testing.T, dir, id, tool, specHash string, metrics map[string]float64, fail bool) {
	t.Helper()
	l, err := ledger.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := ledger.Record{
		Schema: ledger.Schema,
		ID:     id,
		Tool:   tool,
		Start:  "2026-08-08T09:00:00Z",
		WallS:  1.5,
		Host:   obs.HostInfo(),
		Status: ledger.StatusOK,
	}
	if specHash != "" {
		r.Scenarios = []ledger.ScenarioRef{{Experiment: "F4", SpecHash: specHash, EngineVersion: "v1"}}
	}
	if metrics != nil {
		r.Runs = []ledger.RunSummary{{
			Controller: "od-rl", Workload: "mixed", Seed: 1, Cores: 64,
			Epochs: 100, Metrics: metrics,
		}}
	}
	if fail {
		r.Status = ledger.StatusFailed
		r.Error = "synthetic"
	}
	if err := l.Append(r); err != nil {
		t.Fatal(err)
	}
}

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// baseMetrics is a healthy run summary; copies tweak individual keys.
func baseMetrics(over map[string]float64) map[string]float64 {
	m := map[string]float64{
		"bips": 40, "bips_per_w": 0.5, "over_j": 1.2, "over_time_frac": 0.01,
		"mean_w": 80, "peak_w": 95, "decide_p99_ns": 1800,
	}
	for k, v := range over {
		m[k] = v
	}
	return m
}

func TestObsUsageErrors(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"no mode", []string{"-ledger", dir}, "usage:"},
		{"two modes", []string{"-ledger", dir, "-list", "-check"}, "mutually exclusive"},
		{"diff one arg", []string{"-ledger", dir, "-diff", "a"}, "exactly two"},
		{"stray args", []string{"-ledger", dir, "-list", "stray"}, "unexpected arguments"},
		{"negative threshold", []string{"-ledger", dir, "-check", "-threshold", "-1"}, "must be >= 0"},
		{"unknown flag", []string{"-frobnicate"}, "flag provided but not defined"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCLI(t, tc.args...)
			if code != 2 {
				t.Fatalf("exit = %d, want 2 (stderr: %s)", code, stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr %q missing %q", stderr, tc.want)
			}
		})
	}
}

func TestObsListShowTrendFilters(t *testing.T) {
	dir := t.TempDir()
	appendRec(t, dir, "r1-aaaa", "odrl-run", "cafe0123", baseMetrics(nil), false)
	appendRec(t, dir, "r2-bbbb", "odrl-bench", "beef4567", baseMetrics(map[string]float64{"bips": 41}), false)
	appendRec(t, dir, "r3-cccc", "odrl-run", "", nil, true)

	code, out, stderr := runCLI(t, "-ledger", dir, "-list")
	if code != 0 {
		t.Fatalf("list exit %d: %s", code, stderr)
	}
	for _, want := range []string{"r1-aaaa", "r2-bbbb", "r3-cccc", "F4:cafe0123", "failed"} {
		if !strings.Contains(out, want) {
			t.Errorf("list output missing %q:\n%s", want, out)
		}
	}

	code, out, _ = runCLI(t, "-ledger", dir, "-list", "-tool", "odrl-bench")
	if code != 0 || strings.Contains(out, "r1-aaaa") || !strings.Contains(out, "r2-bbbb") {
		t.Errorf("tool filter leaked:\n%s", out)
	}
	code, out, _ = runCLI(t, "-ledger", dir, "-list", "-spec", "cafe")
	if code != 0 || !strings.Contains(out, "r1-aaaa") || strings.Contains(out, "r2-bbbb") {
		t.Errorf("spec-prefix filter leaked:\n%s", out)
	}
	code, out, _ = runCLI(t, "-ledger", dir, "-list", "-status", "failed")
	if code != 0 || !strings.Contains(out, "r3-cccc") || strings.Contains(out, "r1-aaaa") {
		t.Errorf("status filter leaked:\n%s", out)
	}

	// -show by unique prefix prints the full record JSON.
	code, out, stderr = runCLI(t, "-ledger", dir, "-show", "r2")
	if code != 0 {
		t.Fatalf("show exit %d: %s", code, stderr)
	}
	if !strings.Contains(out, `"id": "r2-bbbb"`) || !strings.Contains(out, `"spec_hash": "beef4567"`) {
		t.Errorf("show output:\n%s", out)
	}
	if code, _, stderr = runCLI(t, "-ledger", dir, "-show", "r"); code != 1 || !strings.Contains(stderr, "ambiguous") {
		t.Errorf("ambiguous prefix: exit %d, stderr %s", code, stderr)
	}

	// -trend prints one line per run carrying the metric, oldest first.
	code, out, stderr = runCLI(t, "-ledger", dir, "-trend", "bips")
	if code != 0 {
		t.Fatalf("trend exit %d: %s", code, stderr)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], "40") || !strings.Contains(lines[1], "41") {
		t.Errorf("trend output:\n%s", out)
	}
	if _, out, _ = runCLI(t, "-ledger", dir, "-trend", "nope"); !strings.Contains(out, "no samples") {
		t.Errorf("missing-metric trend output:\n%s", out)
	}
}

// TestObsDiffIdenticalSpecClean is the acceptance criterion: two runs of the
// same spec — deterministic metrics identical, wall-clock jitter present —
// must diff with zero regressions by default.
func TestObsDiffIdenticalSpecClean(t *testing.T) {
	dir := t.TempDir()
	appendRec(t, dir, "runA", "odrl-run", "cafe0123", baseMetrics(map[string]float64{"decide_p99_ns": 1800}), false)
	appendRec(t, dir, "runB", "odrl-run", "cafe0123", baseMetrics(map[string]float64{"decide_p99_ns": 2600}), false)

	code, out, stderr := runCLI(t, "-ledger", dir, "-diff", "runA", "runB")
	if code != 0 {
		t.Fatalf("identical-spec diff exit %d:\n%s%s", code, out, stderr)
	}
	if !strings.Contains(out, "0 regressions") {
		t.Errorf("diff output missing clean verdict:\n%s", out)
	}
	if !strings.HasPrefix(out, "provenance: same\n") {
		t.Errorf("identical-spec diff does not open with same provenance:\n%s", out)
	}

	// The same pair with -wallclock judges the decide jitter (+44%).
	code, out, _ = runCLI(t, "-ledger", dir, "-diff", "-wallclock", "runA", "runB")
	if code != 1 || !strings.Contains(out, "decide_p99_ns") {
		t.Errorf("-wallclock diff: exit %d\n%s", code, out)
	}
}

// TestObsPinAndCheck is the CI-gate acceptance criterion: a seeded slowdown
// against the pinned baseline makes -check exit 1.
func TestObsPinAndCheck(t *testing.T) {
	dir := t.TempDir()
	appendRec(t, dir, "good1", "odrl-run", "cafe0123", baseMetrics(nil), false)

	code, out, stderr := runCLI(t, "-ledger", dir, "-pin", "latest")
	if code != 0 || !strings.Contains(out, "pinned baseline good1") {
		t.Fatalf("pin: exit %d\n%s%s", code, out, stderr)
	}

	// Identical re-run: check passes.
	appendRec(t, dir, "good2", "odrl-run", "cafe0123", baseMetrics(nil), false)
	code, out, stderr = runCLI(t, "-ledger", dir, "-check")
	if code != 0 {
		t.Fatalf("clean check exit %d:\n%s%s", code, out, stderr)
	}
	if !strings.Contains(out, "baseline  good1") || !strings.Contains(out, "candidate good2") {
		t.Errorf("check output missing pair:\n%s", out)
	}

	// Seeded 20% bips collapse: check fails, naming the metric.
	appendRec(t, dir, "slow1", "odrl-run", "cafe0123", baseMetrics(map[string]float64{"bips": 32}), false)
	code, out, _ = runCLI(t, "-ledger", dir, "-check")
	if code != 1 {
		t.Fatalf("regressed check exit %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "bips") || !strings.Contains(out, "regression(s)") {
		t.Errorf("check output missing regression:\n%s", out)
	}

	// A loose threshold admits the same slowdown.
	if code, out, _ = runCLI(t, "-ledger", dir, "-check", "-threshold", "0.5"); code != 0 {
		t.Errorf("loose-threshold check exit %d:\n%s", code, out)
	}

	// A failed run never becomes the candidate.
	appendRec(t, dir, "boom1", "odrl-run", "cafe0123", nil, true)
	if code, out, _ = runCLI(t, "-ledger", dir, "-check", "-threshold", "0.5"); code != 0 {
		t.Errorf("failed-run candidate leaked into check:\n%s", out)
	}

	// -baseline overrides the pin.
	code, out, _ = runCLI(t, "-ledger", dir, "-check", "-baseline", "slow1", "-threshold", "0.5")
	if code != 0 || !strings.Contains(out, "baseline  slow1") {
		t.Errorf("-baseline override: exit %d\n%s", code, out)
	}
}

func TestObsCheckWithoutBaseline(t *testing.T) {
	dir := t.TempDir()
	appendRec(t, dir, "only1", "odrl-run", "", baseMetrics(nil), false)
	code, _, stderr := runCLI(t, "-ledger", dir, "-check")
	if code != 1 || !strings.Contains(stderr, "no baseline pinned") {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
}

// TestObsCheckRefusesCorruptLedger: -check fails closed when any line fails
// its content-hash verification, even if the surviving records look fine.
func TestObsCheckRefusesCorruptLedger(t *testing.T) {
	dir := t.TempDir()
	appendRec(t, dir, "good1", "odrl-run", "", baseMetrics(nil), false)
	if code, _, _ := runCLI(t, "-ledger", dir, "-pin", "latest"); code != 0 {
		t.Fatal("pin failed")
	}
	tamper(t, dir)
	code, _, stderr := runCLI(t, "-ledger", dir, "-check")
	if code != 1 || !strings.Contains(stderr, "corrupt ledger line") {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	// Read-only list still works, with the corruption reported on stderr.
	if code, _, stderr := runCLI(t, "-ledger", dir, "-list"); code != 0 || !strings.Contains(stderr, "hash mismatch") {
		t.Fatalf("list over corrupt ledger: exit %d, stderr: %s", code, stderr)
	}
}

// tamper appends a record and then edits its metric in place.
func tamper(t *testing.T, dir string) {
	t.Helper()
	appendRec(t, dir, "evil1", "odrl-run", "", baseMetrics(map[string]float64{"bips": 40}), false)
	path := filepath.Join(dir, ledger.FileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	edited := bytes.Replace(data, []byte(`"bips":40`), []byte(`"bips":99`), 1)
	if bytes.Equal(edited, data) {
		t.Fatal("tamper target not found")
	}
	if err := os.WriteFile(path, edited, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDiffProvenanceNamesTheField: -diff of two records that differ in
// exactly one provenance field opens with a line naming that field, then
// its A -> B detail.
func TestDiffProvenanceNamesTheField(t *testing.T) {
	base := func() ledger.Record {
		return ledger.Record{
			Schema: ledger.Schema, Tool: "odrl", Args: []string{"-seed", "1"},
			Start: "2026-08-08T09:00:00Z", WallS: 1.5, Host: obs.HostInfo(), Status: ledger.StatusOK,
			Scenarios: []ledger.ScenarioRef{{SpecHash: "cafe0123", EngineVersion: "odrl-scenario-v2"}},
			Runs: []ledger.RunSummary{{
				Controller: "od-rl", Workload: "mixed", Seed: 1, Cores: 64, BudgetW: 90,
				Epochs: 100, Metrics: baseMetrics(nil),
			}},
		}
	}
	for _, tc := range []struct {
		field, detail string
		edit          func(*ledger.Record)
	}{
		{"engine version", `"odrl-scenario-v2" -> "odrl-scenario-v3"`, func(r *ledger.Record) { r.Scenarios[0].EngineVersion = "odrl-scenario-v3" }},
		{"spec hash", `"cafe0123" -> "beef4567"`, func(r *ledger.Record) { r.Scenarios[0].SpecHash = "beef4567" }},
		{"seed", `"1" -> "2"`, func(r *ledger.Record) { r.Runs[0].Seed = 2 }},
		{"fault plan", `"" -> "plan-0.5"`, func(r *ledger.Record) { r.Runs[0].FaultPlan = "plan-0.5" }},
		{"args", `"-seed 1" -> "-seed 1 -monitor"`, func(r *ledger.Record) { r.Args = append(r.Args, "-monitor") }},
	} {
		t.Run(tc.field, func(t *testing.T) {
			dir := t.TempDir()
			l, err := ledger.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			a, b := base(), base()
			a.ID, b.ID = "recA", "recB"
			tc.edit(&b)
			for _, r := range []ledger.Record{a, b} {
				if err := l.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			code, out, stderr := runCLI(t, "-ledger", dir, "-diff", "recA", "recB")
			if code != 0 {
				t.Fatalf("exit %d:\n%s%s", code, out, stderr)
			}
			lines := strings.SplitN(out, "\n", 3)
			if lines[0] != "provenance: differs in "+tc.field {
				t.Fatalf("first line %q, want it to name only %q:\n%s", lines[0], tc.field, out)
			}
			if !strings.Contains(lines[1], tc.field+":") || !strings.HasSuffix(lines[1], tc.detail) {
				t.Fatalf("detail line %q, want %q:\n%s", lines[1], tc.detail, out)
			}
		})
	}
}
