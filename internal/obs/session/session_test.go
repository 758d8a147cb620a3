package session

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// parse registers the shared flags on a fresh set and parses args.
func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs, 3)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestValidate(t *testing.T) {
	cases := []struct {
		args []string
		want string // "" means valid
	}{
		{nil, ""},
		{[]string{"-artifacts", "d", "-snapshot-every", "5"}, ""},
		{[]string{"-snapshot-every", "5"}, "needs -artifacts"},
		{[]string{"-snapshot-every", "-1"}, "negative"},
		{[]string{"-artifacts", "d", "-trace-events", "t.jsonl"}, "drop -trace-events"},
	}
	for _, tc := range cases {
		err := parse(t, tc.args...).Validate()
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%v: err %v, want %q", tc.args, err, tc.want)
		}
	}
}

// TestOffSessionIsInert: with no flags set only the ledger is armed, and
// with -no-ledger the stack is empty.
func TestOffSessionIsInert(t *testing.T) {
	s, err := parse(t, "-no-ledger").Start("odrl", nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if s.Stack != (sim.Stack{}) || s.Ledger != nil {
		t.Fatalf("stack %+v ledger %v, want both empty", s.Stack, s.Ledger)
	}
	var stderr bytes.Buffer
	if err := s.Close(&stderr); err != nil || stderr.Len() != 0 {
		t.Fatalf("close: %v, wrote %q", err, stderr.String())
	}
}

// TestFullSession runs one simulation on a fully armed session and checks
// every surface: trace records in the artifact directory, both summaries
// on the given stderr, the Perfetto file, the debug server and the ledger.
func TestFullSession(t *testing.T) {
	dir := t.TempDir()
	perfetto := filepath.Join(dir, "spans.json")
	artifacts := filepath.Join(dir, "run")
	f := parse(t, "-monitor", "-learn", "-perfetto", perfetto, "-artifacts", artifacts,
		"-debug-addr", "127.0.0.1:0", "-ledger", filepath.Join(dir, "ledger"))
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	s, err := f.Start("odrl", []string{"-monitor"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if s.Stack.Observer == nil || s.Stack.Monitor == nil || s.Stack.Learn == nil || s.Stack.SpanSink == nil || s.Ledger == nil {
		t.Fatalf("layer missing: %+v", s.Stack)
	}
	opts := sim.DefaultOptions()
	opts.Cores, opts.WarmupS, opts.MeasureS = 16, 0.05, 0.1
	opts.Stack = s.Stack
	env, err := sim.EnvFor(opts)
	if err != nil {
		t.Fatal(err)
	}
	c, err := sim.NewController("od-rl", env)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(opts, c); err != nil {
		t.Fatal(err)
	}
	var quantiles, stderr bytes.Buffer
	if err := s.WriteDecideQuantiles(&quantiles); err != nil || !strings.Contains(quantiles.String(), "p99") {
		t.Fatalf("decide quantiles %q, err %v", quantiles.String(), err)
	}
	if err := s.Close(&stderr); err != nil {
		t.Fatal(err)
	}
	s.Ledger.Finish(nil)
	for _, want := range []string{"run-health summary:", "learn: run 1 (od-rl)"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr missing %q:\n%s", want, stderr.String())
		}
	}
	trace, err := os.Open(filepath.Join(artifacts, "trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer trace.Close()
	if recs, err := obs.ReadRecords(trace); err != nil || len(recs) < 3 {
		t.Fatalf("artifact trace: %d records, err %v", len(recs), err)
	}
	if fi, err := os.Stat(perfetto); err != nil || fi.Size() == 0 {
		t.Fatalf("perfetto file: %v", err)
	}
}

func TestStartFailures(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-trace-events", filepath.Join(dir, "missing", "t.jsonl")},
		{"-alert-rules", filepath.Join(dir, "missing.json")},
		{"-debug-addr", "256.0.0.1:bad"},
	} {
		if _, err := parse(t, append(args, "-no-ledger")...).Start("odrl", nil, io.Discard); err == nil {
			t.Errorf("%v: Start succeeded", args)
		}
	}
}
