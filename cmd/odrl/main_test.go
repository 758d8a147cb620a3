package main

import (
	"bytes"
	"strings"
	"testing"
)

func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestSnapshotEveryNeedsArtifacts(t *testing.T) {
	code, _, stderr := runCLI("-snapshot-every", "5", "-no-ledger")
	if code != 2 || !strings.Contains(stderr, "-snapshot-every needs -artifacts") {
		t.Fatalf("exit %d, want 2 with a usage error\nstderr: %s", code, stderr)
	}
}

// TestSummariesReachInjectedStderr: the run-health and learning summaries
// are written to the stderr the run seam is given, not the process's.
func TestSummariesReachInjectedStderr(t *testing.T) {
	code, stdout, stderr := runCLI("-controllers", "od-rl,pid", "-cores", "16", "-warmup", "0.05", "-measure", "0.2", "-monitor", "-learn", "-no-ledger")
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	for _, want := range []string{"run-health summary:", "learn: run"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr missing %q:\n%s", want, stderr)
		}
	}
}
