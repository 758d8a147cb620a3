package session

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/learn"
	"repro/internal/obs/ledger"
	"repro/internal/obs/monitor"
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
		{[]string{"-snapshot-every", "5"}, ""},
		{[]string{"-snapshot-every", "5", "-trace-events", "t.jsonl"}, ""},
		{[]string{"-snapshot-every", "5", "-no-ledger"}, "needs the run ledger"},
		{[]string{"-learn", "-no-ledger"}, ""},
		{[]string{"-snapshot-every", "-1"}, "negative"},
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
	s, err := parse(t, "-no-ledger").Start("odrl", nil, io.Discard, io.Discard)
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
// every surface: the learning report and snapshots in the ledger record,
// both summaries on the given stderr, the Perfetto file, the debug server
// and the ledger.
func TestFullSession(t *testing.T) {
	dir := t.TempDir()
	perfetto := filepath.Join(dir, "spans.json")
	ledgerDir := filepath.Join(dir, "ledger")
	// -snapshot-every implies -learn.
	f := parse(t, "-monitor", "-snapshot-every", "50", "-perfetto", perfetto,
		"-debug-addr", "127.0.0.1:0", "-ledger", ledgerDir)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	s, err := f.Start("odrl", []string{"-monitor"}, io.Discard, io.Discard)
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
	recs, errs := ledger.Read(ledgerDir)
	if len(errs) > 0 || len(recs) != 1 {
		t.Fatalf("ledger: %d records, errors %v", len(recs), errs)
	}
	var report learn.Report
	snaps := 0
	for _, a := range recs[0].Artifacts {
		data, err := ledger.ReadArtifact(ledgerDir, recs[0].ID, a)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case a.Name == "learn/1-od-rl/learn.json":
			if err := json.Unmarshal(data, &report); err != nil {
				t.Fatal(err)
			}
		case strings.HasPrefix(a.Name, "learn/1-od-rl/snap-"):
			snaps++
		}
	}
	if report.Summary.Meta.Controller != "od-rl" || report.Summary.Epochs == 0 || snaps < 2 {
		t.Fatalf("learn artifacts: report %+v, %d snapshots (artifacts %+v)", report.Summary, snaps, recs[0].Artifacts)
	}
	if fi, err := os.Stat(perfetto); err != nil || fi.Size() == 0 {
		t.Fatalf("perfetto file: %v", err)
	}
}

// TestOneSpanRing: a session holds at most one span ring, and it is what
// every run's controller streams to. With the ledger on it is the flight
// recorder's; with the ledger off the session makes its own only when the
// monitor's surfaces or -perfetto read it.
func TestOneSpanRing(t *testing.T) {
	dir := t.TempDir()
	ledgerDir := filepath.Join(dir, "ledger")
	perfetto := filepath.Join(dir, "spans.json")
	cases := []struct {
		args []string
		want string // "recorder", "own" or "none"
	}{
		{[]string{"-ledger", ledgerDir}, "recorder"},
		{[]string{"-ledger", ledgerDir, "-monitor", "-perfetto", perfetto}, "recorder"},
		{[]string{"-no-ledger"}, "none"},
		{[]string{"-no-ledger", "-learn"}, "none"},
		{[]string{"-no-ledger", "-monitor"}, "own"},
		{[]string{"-no-ledger", "-perfetto", perfetto}, "own"},
	}
	for _, tc := range cases {
		s, err := parse(t, tc.args...).Start("odrl", nil, io.Discard, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		var ok bool
		switch tc.want {
		case "recorder":
			ok = s.Stack.SpanSink == obs.SpanSink(s.Ledger.Recorder().Timeline())
		case "own":
			_, ok = s.Stack.SpanSink.(*monitor.Timeline)
			ok = ok && s.Ledger == nil
		case "none":
			ok = s.Stack.SpanSink == nil
		}
		if !ok {
			t.Errorf("%v: span sink %T, want the %s ring", tc.args, s.Stack.SpanSink, tc.want)
		}
		if err := s.Close(nil); err != nil {
			t.Fatal(err)
		}
		s.Ledger.Finish(nil)
	}
}

func TestStartFailures(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-trace-events", filepath.Join(dir, "missing", "t.jsonl")},
		{"-alert-rules", filepath.Join(dir, "missing.json")},
		{"-alert-rules", filepath.Join(dir, "missing.json"), "-perfetto", filepath.Join(dir, "spans.json")},
		{"-debug-addr", "256.0.0.1:bad"},
	} {
		if _, err := parse(t, append(args, "-no-ledger")...).Start("odrl", nil, io.Discard, io.Discard); err == nil {
			t.Errorf("%v: Start succeeded", args)
		}
	}
}
