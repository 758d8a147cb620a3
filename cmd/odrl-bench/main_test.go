package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestSnapshotEveryNeedsArtifacts(t *testing.T) {
	code, _, stderr := runCLI("-experiment", "F7", "-quick", "-snapshot-every", "5", "-no-ledger")
	if code != 2 || !strings.Contains(stderr, "-snapshot-every needs -artifacts") {
		t.Fatalf("exit %d, want 2 with a usage error\nstderr: %s", code, stderr)
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
