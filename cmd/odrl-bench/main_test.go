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

// TestNegativeOverrideIsUsageError: a negative -j, -cores or -budget is
// malformed input, refused with exit 2 before the session starts, so no
// run record is left. (Zero means "no override".)
func TestNegativeOverrideIsUsageError(t *testing.T) {
	for _, flag := range []string{"-j", "-cores", "-budget"} {
		t.Run(flag, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "ledger")
			code, _, stderr := runCLI("-experiment", "T1", "-quick", flag, "-4", "-ledger", dir)
			if code != 2 || !strings.Contains(stderr, flag+" -4: must not be negative") {
				t.Fatalf("exit %d, want 2 with a usage error\nstderr: %s", code, stderr)
			}
			if _, err := os.Stat(dir); !os.IsNotExist(err) {
				t.Fatalf("rejected invocation touched the ledger directory (stat err %v)", err)
			}
		})
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

// TestReportThroughEngine: -report renders the header and each
// experiment's engine table as markdown, and the ledger record carries the
// table's spec hash like a table-mode run. A report without CLAIMS has no
// claim rows: the head is the title and the configuration line only.
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
	want := "# OD-RL reproduction report\n\nConfiguration: 16 cores, 55 W budget, seed 1 (quick mode).\n\n" + t1.String()
	if string(b) != want {
		t.Errorf("report:\n%s\nwant the head, then the engine's T1 table:\n%s", b, want)
	}

	recs, errs := ledger.Read(ldir)
	if len(errs) > 0 || len(recs) != 1 {
		t.Fatalf("records=%d errs=%v", len(recs), errs)
	}
	if sc := recs[0].Scenarios; len(sc) != 1 || sc[0].Experiment != "T1" || sc[0].SpecHash != info.Hash {
		t.Errorf("ledger scenarios %+v, want T1 with spec hash %s", sc, info.Hash)
	}
}

// TestFailingClaimsWriteReportThenExit1: at a 500 W budget nothing
// overshoots, so C2 has nothing to beat and fails on both quick seeds. The
// report still holds the whole CLAIMS table, then the command exits 1
// naming the claim and its seeds, and the ledger records the run failed.
func TestFailingClaimsWriteReportThenExit1(t *testing.T) {
	dir := t.TempDir()
	reportPath, csvDir, ldir := filepath.Join(dir, "report.md"), filepath.Join(dir, "csv"), filepath.Join(dir, "ledger")
	code, stdout, stderr := runCLI("-quick", "-experiment", "CLAIMS", "-budget", "500",
		"-report", reportPath, "-o", csvDir, "-ledger", ldir)
	if code != 1 || !strings.Contains(stderr, "claims failed: C2 FAIL on seeds 1, 2") {
		t.Fatalf("exit %d, want 1 naming C2 and its seeds\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	b, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	const head = "# OD-RL reproduction report\n\nConfiguration: 16 cores, 500 W budget, seed 1 (quick mode).\n\n### CLAIMS — "
	if !strings.HasPrefix(string(b), head) || !strings.Contains(string(b), "| FAIL on seeds 1, 2 |") {
		t.Errorf("report does not hold the failing claims table after its head:\n%s", b)
	}
	if _, err := os.Stat(filepath.Join(csvDir, "claims.csv")); err != nil {
		t.Errorf("claims CSV not written: %v", err)
	}
	recs, errs := ledger.Read(ldir)
	if len(errs) > 0 || len(recs) != 1 || recs[0].Status != ledger.StatusFailed {
		t.Fatalf("records=%d errs=%v, want one failed record", len(recs), errs)
	}
}
