package main

import (
	"bytes"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/scenario"
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
	code, stdout, stderr := runCLI("-param", "budget", "-values", "20,30", "-cores", "16", "-warmup", "0.05", "-measure", "0.2", "-monitor", "-learn", "-no-ledger")
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	for _, want := range []string{"run-health summary:", "learn: run"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr missing %q:\n%s", want, stderr)
		}
	}
}

// TestEpochSweepMatchesEngine: a -param epoch point decides at the cadence
// sim.EnvFor derives from its epoch length, so its BIPS equals the
// engine's SWEEP row for the spec -write-spec emits (odrl-run's path).
func TestEpochSweepMatchesEngine(t *testing.T) {
	args := []string{"-param", "epoch", "-values", "0.002", "-cores", "16", "-warmup", "0.2", "-measure", "0.4", "-no-ledger"}
	code, stdout, stderr := runCLI(args...)
	if code != 0 {
		t.Fatalf("sweep exit %d\nstderr: %s", code, stderr)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) != 2 {
		t.Fatalf("want header + one row, got:\n%s", stdout)
	}
	bips, err := strconv.ParseFloat(strings.Split(lines[1], ",")[3], 64)
	if err != nil {
		t.Fatal(err)
	}

	code, specJSON, stderr := runCLI(append(args, "-write-spec")...)
	if code != 0 {
		t.Fatalf("-write-spec exit %d\nstderr: %s", code, stderr)
	}
	spec, err := scenario.Load(strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	tbl, _, err := (&scenario.Engine{}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	col := slices.Index(tbl.Header, "BIPS")
	want, err := strconv.ParseFloat(tbl.Rows[0][col], 64)
	if err != nil {
		t.Fatal(err)
	}
	// The engine cell carries three decimals.
	if math.Abs(bips-want) > 5e-4 {
		t.Fatalf("sweep BIPS %g, engine SWEEP row %s", bips, tbl.Rows[0][col])
	}
}
