package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/fault"
)

// goldenSpec loads a builtin spec pinned to the golden axes the
// experiments package snapshots with (Quick fidelity; Workers set per
// call — tables are bit-identical for any worker count).
func goldenSpec(t *testing.T, id string, workers int) Spec {
	t.Helper()
	spec, err := Builtin(id)
	if err != nil {
		t.Fatal(err)
	}
	spec.Quick = true
	spec.Workers = workers
	return spec
}

// maskColumns mirrors the experiments golden harness: wall-clock columns
// (measured decision latency, speedup) cannot be snapshot-tested, so their
// cells are blanked before comparison.
func maskColumns(t experiments.Table, cols ...string) experiments.Table {
	masked := map[int]bool{}
	for i, h := range t.Header {
		for _, c := range cols {
			if h == c {
				masked[i] = true
			}
		}
	}
	rows := make([][]string, len(t.Rows))
	for r, row := range t.Rows {
		out := append([]string(nil), row...)
		for i := range out {
			if masked[i] {
				out[i] = "-"
			}
		}
		rows[r] = out
	}
	t.Rows = rows
	return t
}

// TestSpecGoldenParity is the spec-parity harness: for every experiment
// with a golden snapshot, the table produced by the engine from the
// checked-in JSON spec must be byte-identical to the golden file the
// hand-coded runner maintains (regenerate those with
// `go test ./internal/experiments/ -run Golden -update`), at -j1 and -j4.
// It also proves both worker counts share one content hash, so cached
// sweeps are free across -j.
func TestSpecGoldenParity(t *testing.T) {
	cases := []struct {
		id   string
		mask []string // wall-clock columns, as in the experiments harness
	}{
		{"F1", nil},
		{"F2", nil},
		{"F3", nil},
		{"F4", nil},
		{"F5", []string{"od-rl(µs)", "maxbips(µs)", "steepest-drop(µs)", "pid(µs)", "speedup"}},
		{"F14", nil},
		{"F18", nil},
	}
	for _, tc := range cases {
		t.Run(tc.id, func(t *testing.T) {
			goldenPath := filepath.Join("..", "experiments", "testdata", strings.ToLower(tc.id)+".golden")
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden file %s: %v", goldenPath, err)
			}
			var hashes []string
			for _, workers := range []int{1, 4} {
				spec := goldenSpec(t, tc.id, workers)
				hash, err := spec.Hash()
				if err != nil {
					t.Fatal(err)
				}
				hashes = append(hashes, hash)
				// No cache here: each worker count must genuinely
				// re-derive the table, not replay the previous one.
				tbl, _, err := (&Engine{}).Run(spec)
				if err != nil {
					t.Fatal(err)
				}
				tbl = maskColumns(tbl, tc.mask...)
				var b strings.Builder
				if _, err := tbl.WriteTo(&b); err != nil {
					t.Fatal(err)
				}
				if b.String() != string(want) {
					t.Errorf("spec-driven %s at -j%d drifted from %s.\n--- want\n%s--- got\n%s",
						tc.id, workers, goldenPath, want, b.String())
				}
			}
			if hashes[0] != hashes[1] {
				t.Errorf("content hash differs across worker counts: %v", hashes)
			}
		})
	}
}

// TestBuiltinSpecsCoverRegistry: every registered experiment has a
// loadable checked-in spec bound to its own ID, so the declarative surface
// never lags the registry.
func TestBuiltinSpecsCoverRegistry(t *testing.T) {
	for _, e := range experiments.All() {
		spec, err := Builtin(e.ID)
		if err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		if spec.Experiment != e.ID {
			t.Errorf("%s: spec names experiment %q", e.ID, spec.Experiment)
		}
		if spec.Name == "" {
			t.Errorf("%s: spec has no name", e.ID)
		}
	}
	if _, err := Builtin("F99"); err == nil {
		t.Error("Builtin accepted an unregistered ID")
	}
}

// TestExperimentConfigDerivation pins the spec→Config mapping the
// experiment run kind relies on: every field Validate admits for
// experiment specs lands in the exact Config slot the hand-coded runners
// read, so byte-parity with the goldens follows from the mapping alone.
func TestExperimentConfigDerivation(t *testing.T) {
	plan := fault.Scaled(0.5)
	spec := Spec{
		Experiment:  "F18",
		Cores:       32,
		BudgetW:     40,
		WarmupS:     1,
		MeasureS:    2,
		Seeds:       []uint64{9},
		Controllers: []string{"od-rl", "pid"},
		Benchmarks:  []string{"canneal"},
		Quick:       true,
		Workers:     4,
		FaultPlan:   &plan,
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	want := experiments.Config{
		Cores:       32,
		BudgetW:     40,
		WarmupS:     1,
		MeasureS:    2,
		Seed:        9,
		Controllers: []string{"od-rl", "pid"},
		Benchmarks:  []string{"canneal"},
		Quick:       true,
		Workers:     4,
		FaultPlan:   &plan,
	}
	if got := spec.experimentConfig(); !reflect.DeepEqual(got, want) {
		t.Errorf("experimentConfig() = %+v, want %+v", got, want)
	}

	// The minimal spec maps to the zero Config: every axis left to the
	// runner's own normalization, exactly as the CLIs call it.
	minimal := Spec{Experiment: "F1"}
	if got := minimal.experimentConfig(); !reflect.DeepEqual(got, experiments.Config{}) {
		t.Errorf("minimal experimentConfig() = %+v, want zero", got)
	}
}
