package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs/learn"
	"repro/internal/obs/ledger"
	"repro/internal/sim"
)

// recordLearning runs each controller through sim.Run into one new ledger
// record, the way a -learn -snapshot-every session does: one learn layer
// whose sink is the record's AddArtifact, and the record's flight recorder
// as observer. Each run lasts 1000 epochs. It returns the record's ID.
func recordLearning(t *testing.T, dir string, seed uint64, snapshotEvery int, controllers ...string) string {
	t.Helper()
	c := ledger.StartCLI("odrl", []string{"-learn", "-seed", fmt.Sprint(seed)}, dir, false, io.Discard)
	lrn := learn.New(learn.Options{
		// Permissive detector so short test runs still emit converged events.
		Detector:      learn.Detector{StableEpochs: 50, TDThreshold: 0.6, EMAAlpha: 0.1},
		SnapshotEvery: snapshotEvery,
		Artifacts:     c.AddArtifact,
	})
	for _, name := range controllers {
		opts := sim.DefaultOptions()
		opts.Cores, opts.Workers, opts.WarmupS, opts.MeasureS, opts.Seed = 16, 1, 0, 1, seed
		opts.Stack = sim.Stack{Observer: c.WrapObserver(nil), Learn: lrn}
		ctl, err := sim.NewController(name, sim.DefaultEnv(opts.Cores))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(opts, ctl); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range lrn.Runs() {
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
	}
	c.Finish(nil)
	return c.RunID()
}

func TestShowLearningRun(t *testing.T) {
	dir := t.TempDir()
	id := recordLearning(t, dir, 1, 200, "od-rl")

	code, got, stderr := runCLI(t, "-ledger", dir, "-show", id)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	for _, want := range []string{
		`"id": "` + id + `"`,
		"controller od-rl", "learning curves", "td_ema", "epsilon",
		"convergence:", "epochs-to-converge", "policy snapshots:",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("report missing %q:\n%s", want, got)
		}
	}
	if !strings.ContainsAny(got, "▁▂▃▄▅▆▇█") {
		t.Fatalf("no sparklines in report:\n%s", got)
	}
}

func TestDiffLearningRuns(t *testing.T) {
	dir := t.TempDir()
	a := recordLearning(t, dir, 1, 200, "od-rl")
	b := recordLearning(t, dir, 7, 200, "od-rl")

	code, got, stderr := runCLI(t, "-ledger", dir, "-diff", a, b)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	for _, want := range []string{
		"== diff:", "final metric", "greedy-action disagreement",
		"first recorded policy divergence: epoch",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("diff missing %q:\n%s", want, got)
		}
	}
}

func TestDiffIdenticalLearningRunsDoNotDiverge(t *testing.T) {
	dir := t.TempDir()
	a := recordLearning(t, dir, 3, 200, "od-rl")
	b := recordLearning(t, dir, 3, 200, "od-rl")

	code, got, stderr := runCLI(t, "-ledger", dir, "-diff", a, b)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(got, "policies identical at every common snapshot epoch") {
		t.Fatalf("same-seed runs reported divergence:\n%s", got)
	}
	if !strings.Contains(got, "disagreement (final policies): 0/") {
		t.Fatalf("same-seed runs disagree on greedy actions:\n%s", got)
	}
	if !strings.Contains(got, "0 regressions") {
		t.Fatalf("same-seed runs regressed:\n%s", got)
	}
}

func TestLearningBadInvocations(t *testing.T) {
	dir := t.TempDir()
	if code, _, _ := runCLI(t, "-ledger", dir, "-show"); code != 2 {
		t.Fatalf("-show without an ID: exit %d, want 2", code)
	}
	if code, _, _ := runCLI(t, "-ledger", dir, "-diff", "a", "b", "c"); code != 2 {
		t.Fatalf("three IDs: exit %d, want 2", code)
	}
	if code, _, _ := runCLI(t, "-ledger", dir, "-show", "nosuch"); code != 1 {
		t.Fatalf("unknown ID: exit %d, want 1", code)
	}
	if code, _, _ := runCLI(t, "-ledger", dir, "-diff", "nosuch", "other"); code != 1 {
		t.Fatalf("unknown IDs: exit %d, want 1", code)
	}
}

// TestShowPairsEachLearningRun: a record holding od-rl, maxbips and od-rl
// runs from one stack shows one report per learning run, each naming its
// own snapshot chain, and none for maxbips; diffing two such records notes
// the repeated key as ambiguous instead of pairing unlike runs. Specs
// refuse a controller listed twice, but runs that share a name and not
// their settings (F9's λ, SARSA and EMA variants all report od-rl) record
// such keys.
func TestShowPairsEachLearningRun(t *testing.T) {
	dir := t.TempDir()
	id := recordLearning(t, dir, 1, 200, "od-rl", "maxbips", "od-rl")

	code, got, stderr := runCLI(t, "-ledger", dir, "-show", id)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if n := strings.Count(got, "== "+id+" learn/"); n != 2 {
		t.Fatalf("%d learning reports, want 2:\n%s", n, got)
	}
	for _, want := range []string{" in learn/1-od-rl/ (epochs ", " in learn/2-od-rl/ (epochs "} {
		if !strings.Contains(got, want) {
			t.Fatalf("show missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "controller maxbips") {
		t.Fatalf("maxbips got a learning report:\n%s", got)
	}

	other := recordLearning(t, dir, 1, 200, "od-rl", "maxbips", "od-rl")
	code, got, stderr = runCLI(t, "-ledger", dir, "-diff", id, other)
	if code != 0 {
		t.Fatalf("diff exit %d, stderr:\n%s", code, stderr)
	}
	if strings.Contains(got, "== diff:") || !strings.Contains(got, "note: learning run od-rl|") || !strings.Contains(got, "ambiguous") {
		t.Fatalf("repeated learning key not noted as ambiguous:\n%s", got)
	}
}

// TestShowRefusesCorruptArtifacts: a flipped byte in a full snapshot or in
// learn.json makes -show and -diff exit 1 naming the artifact, before any
// report is printed. The run's only snapshot is its final, full one, so no
// delta's parent hash covers it: only the record's pin can catch the flip.
func TestShowRefusesCorruptArtifacts(t *testing.T) {
	dir := t.TempDir()
	id := recordLearning(t, dir, 1, 5000, "od-rl")
	runDir := filepath.Join(dir, ledger.RunsDirName, id)
	for _, tc := range []struct {
		name string
		at   func(data []byte) int
	}{
		{"learn/1-od-rl/snap-000000-", func(data []byte) int { return len(data) - 1 }},
		{"learn/1-od-rl/learn.json", func(data []byte) int {
			// The last digit of the epoch count: still valid JSON.
			at := bytes.Index(data, []byte(`"epochs": `))
			return at + bytes.IndexByte(data[at:], ',') - 1
		}},
	} {
		t.Run(filepath.Base(tc.name), func(t *testing.T) {
			matches, err := filepath.Glob(filepath.Join(runDir, filepath.FromSlash(tc.name)) + "*")
			if err != nil || len(matches) != 1 {
				t.Fatalf("artifact %s: %v (err %v)", tc.name, matches, err)
			}
			path := matches[0]
			orig, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			bad := append([]byte(nil), orig...)
			bad[tc.at(bad)] ^= 0x01
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			defer os.WriteFile(path, orig, 0o644) //nolint:errcheck // restores the fixture for the next case

			for _, args := range [][]string{{"-show", id}, {"-diff", id, id}} {
				code, out, stderr := runCLI(t, append([]string{"-ledger", dir}, args...)...)
				if code != 1 || !strings.Contains(stderr, tc.name) || !strings.Contains(stderr, "SHA-256") {
					t.Fatalf("%v: exit %d, stderr: %s", args, code, stderr)
				}
				if out != "" {
					t.Fatalf("%v printed from unverified bytes:\n%s", args, out)
				}
			}
		})
	}
}

// TestSparkline: a rising series spans the blocks, and a flat one sits on
// the lowest block whatever its level, so a curve stuck at zero never
// reads as mid-scale.
func TestSparkline(t *testing.T) {
	for _, tc := range []struct {
		name  string
		vals  []float64
		width int
		want  string
	}{
		{"flat at zero", []float64{0, 0, 0, 0}, 60, "▁▁▁▁"},
		{"flat nonzero", []float64{0.7, 0.7, 0.7}, 60, "▁▁▁"},
		{"rising", []float64{0, 1, 2, 3, 4, 5, 6, 7}, 60, "▁▂▃▄▅▆▇█"},
		{"bucketed by mean", []float64{0, 0, 7, 7}, 2, "▁█"},
	} {
		if got := sparkline(tc.vals, tc.width); got != tc.want {
			t.Errorf("%s: sparkline(%v, %d) = %q, want %q", tc.name, tc.vals, tc.width, got, tc.want)
		}
	}
}
