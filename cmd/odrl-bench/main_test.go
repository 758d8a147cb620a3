package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs/ledger"
	"repro/internal/scenario"
)

func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestSnapshotEveryNeedsArtifacts(t *testing.T) {
	code, _, stderr := runCLI("-experiment", "F7", "-quick", "-snapshot-every", "5", "-no-ledger")
	if code != 2 || !strings.Contains(stderr, "-snapshot-every needs the run ledger") {
		t.Fatalf("exit %d, want 2 with a usage error\nstderr: %s", code, stderr)
	}
	// Snapshots live in the ledger record; the old -artifacts directory flag is gone.
	if code, _, stderr := runCLI("-artifacts", "x", "-no-ledger"); code != 2 || !strings.Contains(stderr, "flag provided but not defined") {
		t.Fatalf("-artifacts: exit %d, want 2 as an unknown flag\nstderr: %s", code, stderr)
	}
}

// TestUnknownExperimentIsUsageError: an unknown -experiment ID is rejected
// as malformed input before the session starts, so no run record is left.
func TestUnknownExperimentIsUsageError(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	code, _, stderr := runCLI("-experiment", "F99", "-ledger", dir)
	if code != 2 || !strings.Contains(stderr, "unknown experiment") {
		t.Fatalf("exit %d, want 2 with an unknown-experiment error\nstderr: %s", code, stderr)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("rejected invocation touched the ledger directory (stat err %v)", err)
	}
}

// TestSummariesReachInjectedStderr: the run-health and learning summaries
// are written to the stderr the run seam is given, not the process's.
func TestSummariesReachInjectedStderr(t *testing.T) {
	code, stdout, stderr := runCLI("-experiment", "F7", "-quick", "-monitor", "-learn", "-no-ledger")
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	for _, want := range []string{"run-health summary:", "learn: run"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr missing %q:\n%s", want, stderr)
		}
	}
}

// TestReportThroughEngine: -report renders the header, the claim verdicts
// and each experiment's engine table as markdown, and the ledger record
// carries the table's spec hash like a table-mode run.
func TestReportThroughEngine(t *testing.T) {
	dir := t.TempDir()
	reportPath, ldir := filepath.Join(dir, "report.md"), filepath.Join(dir, "ledger")
	code, stdout, stderr := runCLI("-quick", "-experiment", "T1", "-report", reportPath, "-ledger", ldir)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	b, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	report := string(b)

	spec, err := scenario.Builtin("T1")
	if err != nil {
		t.Fatal(err)
	}
	spec.Quick = true
	tbl, info, err := (&scenario.Engine{}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	var t1 strings.Builder
	if err := tbl.WriteMarkdown(&t1); err != nil {
		t.Fatal(err)
	}
	head := "# OD-RL reproduction report\n\nConfiguration: 16 cores, 55 W budget, seed 1 (quick mode).\n\n" +
		"## Claim verification\n\n| claim | paper | measured | verdict |\n| --- | --- | --- | --- |\n"
	if !strings.HasPrefix(report, head) {
		t.Errorf("report does not open with the header and claim table:\n%s", report)
	}
	for _, claim := range []string{"C1", "C2", "C3", "C4"} {
		if !strings.Contains(report, "\n| "+claim+" | ") {
			t.Errorf("report has no %s verdict row", claim)
		}
	}
	if !strings.HasSuffix(report, "## Experiments\n\n"+t1.String()) {
		t.Errorf("report does not end with the engine's T1 table:\n%s", report)
	}

	recs, errs := ledger.Read(ldir)
	if len(errs) > 0 || len(recs) != 1 {
		t.Fatalf("records=%d errs=%v", len(recs), errs)
	}
	if sc := recs[0].Scenarios; len(sc) != 1 || sc[0].Experiment != "T1" || sc[0].SpecHash != info.Hash {
		t.Errorf("ledger scenarios %+v, want T1 with spec hash %s", sc, info.Hash)
	}
}
