package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/workload"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestRunRejectsMalformedInvocations(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring expected on stderr
	}{
		{"no mode", nil, "Usage"},
		{"record and list", []string{"-record", "-list"}, "mutually exclusive"},
		{"record and inspect", []string{"-record", "-inspect", "x.json"}, "mutually exclusive"},
		{"all three", []string{"-record", "-list", "-inspect", "x.json"}, "mutually exclusive"},
		{"zero dur", []string{"-record", "-dur", "0"}, "-dur must be positive"},
		{"negative dur", []string{"-record", "-dur", "-1"}, "-dur must be positive"},
		{"NaN dur", []string{"-record", "-dur", "NaN"}, "-dur must be positive"},
		{"output without record", []string{"-list", "-o", "x.json"}, "-o only applies"},
		{"unknown flag", []string{"-bogus"}, "flag provided but not defined"},
		// No mode runs simulation epochs, so the tool takes no
		// observability flags beyond the ledger's.
		{"monitor flag", []string{"-list", "-monitor"}, "flag provided but not defined"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCLI(t, tc.args...)
			if code != 2 {
				t.Fatalf("exit code = %d, want 2\nstderr: %s", code, stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Fatalf("stderr missing %q:\n%s", tc.want, stderr)
			}
		})
	}
}

func TestRunList(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit code = %d\nstderr: %s", code, stderr)
	}
	for _, name := range workload.PresetNames() {
		if !strings.Contains(stdout, name) {
			t.Errorf("-list output missing preset %q", name)
		}
	}
}

func TestRunRecordThenInspect(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	code, _, stderr := runCLI(t, "-record", "-benchmark", "vips", "-dur", "0.5", "-o", path)
	if code != 0 {
		t.Fatalf("-record exit code = %d\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "recorded") {
		t.Fatalf("-record did not report entry count:\n%s", stderr)
	}

	code, stdout, stderr := runCLI(t, "-inspect", path)
	if code != 0 {
		t.Fatalf("-inspect exit code = %d\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, `trace "vips"`) || !strings.Contains(stdout, "phase 0") {
		t.Fatalf("-inspect output unexpected:\n%s", stdout)
	}
}

func TestRunRecordToStdoutIsValidTrace(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-record", "-benchmark", "x264", "-dur", "0.5", "-seed", "3")
	if code != 0 {
		t.Fatalf("exit code = %d\nstderr: %s", code, stderr)
	}
	tr, err := workload.ReadJSON(strings.NewReader(stdout))
	if err != nil {
		t.Fatalf("recorded trace does not parse: %v", err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("recorded trace invalid: %v", err)
	}
}

func TestRunFailuresExitOne(t *testing.T) {
	if code, _, _ := runCLI(t, "-record", "-benchmark", "no-such-benchmark"); code != 1 {
		t.Errorf("unknown benchmark: exit code = %d, want 1", code)
	}
	if code, _, _ := runCLI(t, "-inspect", filepath.Join(t.TempDir(), "missing.json")); code != 1 {
		t.Errorf("missing trace file: exit code = %d, want 1", code)
	}
}
