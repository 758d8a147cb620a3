package main

import (
	"bytes"
	"encoding/csv"
	"math"
	"slices"
	"strconv"
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
	code, _, stderr := runCLI("-snapshot-every", "5", "-no-ledger")
	if code != 2 || !strings.Contains(stderr, "-snapshot-every needs the run ledger") {
		t.Fatalf("exit %d, want 2 with a usage error\nstderr: %s", code, stderr)
	}
	// Snapshots live in the ledger record; the old -artifacts directory flag is gone.
	if code, _, stderr := runCLI("-artifacts", "x", "-no-ledger"); code != 2 || !strings.Contains(stderr, "flag provided but not defined") {
		t.Fatalf("-artifacts: exit %d, want 2 as an unknown flag\nstderr: %s", code, stderr)
	}
}

// TestInvalidSpecExit2: flags that build an invalid spec are a malformed
// invocation. odrl exits 2 naming the field before its session opens, so
// the ledger gets no record, and -write-spec refuses the same flags.
func TestInvalidSpecExit2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-controllers", "od-rl,maxbips,od-rl"}, `controller "od-rl" listed twice`},
		{[]string{"-controllers", "foo"}, `unknown controller "foo"`},
		{[]string{"-seed", "0"}, "seed 0 is reserved"},
		// A spec reads zero as the default, so zero flags would run a
		// scenario other than the one they name.
		{[]string{"-warmup", "0"}, "-warmup 0: must be positive"},
		{[]string{"-cores", "0"}, "-cores 0: must be positive"},
		{[]string{"-budget", "0"}, "-budget 0: must be positive"},
		{[]string{"-measure", "0"}, "-measure 0: must be positive"},
		// Every run parameter is checked by sim.Options.Validate.
		{[]string{"-measure", "0.0004"}, "sim: measurement window 0.0004 s rounds to 0 epochs"},
		{[]string{"-budget", "NaN"}, "sim: invalid budget NaN W"},
		{[]string{"-noise", "Inf"}, "sim: invalid sensor noise +Inf"},
	} {
		for _, mode := range []string{"-csv", "-write-spec"} {
			dir := t.TempDir()
			args := append([]string{"-cores", "16", "-warmup", "0.05", "-measure", "0.1", "-ledger", dir, mode}, tc.args...)
			code, stdout, stderr := runCLI(args...)
			if code != 2 || !strings.Contains(stderr, tc.want) || stdout != "" {
				t.Errorf("%v: exit %d, want 2 naming %q\nstdout: %s\nstderr: %s", args, code, tc.want, stdout, stderr)
			}
			if recs, errs := ledger.Read(dir); len(recs) != 0 || len(errs) != 0 {
				t.Errorf("%v: ledger holds %d records (errors %v), want none", args, len(recs), errs)
			}
		}
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

// TestWriteSpecRoundTrip: the spec -write-spec prints, run through the
// scenario engine, reproduces the BIPS that -csv prints for the same flags,
// so `odrl -write-spec` followed by `odrl-run` is the file path for a flag
// invocation.
func TestWriteSpecRoundTrip(t *testing.T) {
	args := []string{"-controllers", "pid,od-rl", "-cores", "16", "-budget", "20", "-warmup", "0.1", "-measure", "0.3", "-no-ledger"}
	code, csvOut, stderr := runCLI(append(args, "-csv")...)
	if code != 0 {
		t.Fatalf("-csv exit %d\nstderr: %s", code, stderr)
	}
	rows, err := csv.NewReader(strings.NewReader(csvOut)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	bipsCol := slices.Index(rows[0], "bips")
	want := map[string]float64{}
	for _, row := range rows[1:] {
		v, err := strconv.ParseFloat(row[bipsCol], 64)
		if err != nil {
			t.Fatal(err)
		}
		want[row[0]] = v
	}

	code, specJSON, stderr := runCLI(append(args, "-write-spec")...)
	if code != 0 {
		t.Fatalf("-write-spec exit %d\nstderr: %s", code, stderr)
	}
	spec, err := scenario.LoadBytes([]byte(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	tbl, _, err := (&scenario.Engine{}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctrlCol, cellCol := slices.Index(tbl.Header, "controller"), slices.Index(tbl.Header, "BIPS")
	if len(tbl.Rows) != len(want) {
		t.Fatalf("engine table has %d rows, -csv has %d", len(tbl.Rows), len(want))
	}
	for _, row := range tbl.Rows {
		got, err := strconv.ParseFloat(row[cellCol], 64)
		if err != nil {
			t.Fatal(err)
		}
		// The engine cell carries three decimals.
		if w, ok := want[row[ctrlCol]]; !ok || math.Abs(got-w) > 5e-4 {
			t.Errorf("%s: engine BIPS %s, -csv BIPS %g", row[ctrlCol], row[cellCol], w)
		}
	}
}

// TestRunRecordsScenarioRef: a ledgered run's record carries one scenario
// ref whose hash is that of the spec -write-spec prints for the same flags,
// so -list -spec finds the run and -diff can compare its provenance.
func TestRunRecordsScenarioRef(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-controllers", "od-rl,pid", "-cores", "16", "-warmup", "0.05", "-measure", "0.1", "-seed", "3"}
	code, specJSON, stderr := runCLI(append(args, "-write-spec")...)
	if code != 0 {
		t.Fatalf("-write-spec exit %d\nstderr: %s", code, stderr)
	}
	spec, err := scenario.LoadBytes([]byte(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	want, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if code, _, stderr := runCLI(append(args, "-csv", "-ledger", dir)...); code != 0 {
		t.Fatalf("run exit %d\nstderr: %s", code, stderr)
	}
	recs, errs := ledger.Read(dir)
	if len(errs) > 0 || len(recs) != 1 {
		t.Fatalf("ledger: %d records, errors %v", len(recs), errs)
	}
	refs := recs[0].Scenarios
	if len(refs) != 1 || refs[0].SpecHash != want || refs[0].EngineVersion != scenario.EngineVersion {
		t.Fatalf("scenario refs %+v, want one with hash %s and engine %s", refs, want, scenario.EngineVersion)
	}
}

// TestRecordMetricsMatchCSV: the ledger record judges the numbers the run
// printed. Every deterministic metric a record holds equals the -csv cell
// for the same run exactly, bips included (it once averaged the noisy
// sensor IPS instead).
func TestRecordMetricsMatchCSV(t *testing.T) {
	dir := t.TempDir()
	code, csvOut, stderr := runCLI("-controllers", "od-rl,pid", "-cores", "16", "-warmup", "0.2", "-measure", "0.5", "-csv", "-ledger", dir)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr)
	}
	rows, err := csv.NewReader(strings.NewReader(csvOut)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	recs, errs := ledger.Read(dir)
	if len(errs) > 0 || len(recs) != 1 || len(recs[0].Runs) != len(rows)-1 {
		t.Fatalf("ledger: %d records, errors %v, want one with a run per CSV row", len(recs), errs)
	}
	metrics := []string{"bips", "bips_per_w", "mean_w", "peak_w", "max_temp_k", "over_j", "over_time_frac"}
	for i, row := range rows[1:] {
		run := recs[0].Runs[i]
		if run.Controller != row[0] {
			t.Fatalf("run %d is %s, CSV row is %s", i, run.Controller, row[0])
		}
		for _, m := range metrics {
			want, err := strconv.ParseFloat(row[slices.Index(rows[0], m)], 64)
			if err != nil {
				t.Fatal(err)
			}
			if got, ok := run.Metrics[m]; !ok || got != want {
				t.Errorf("%s %s: record %v (present %v), CSV %v", run.Controller, m, got, ok, want)
			}
		}
	}
}
