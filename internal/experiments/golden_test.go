package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -update rewrites the golden files from the current code instead of
// comparing against them: `go test ./internal/experiments/ -run Golden -update`.
var update = flag.Bool("update", false, "rewrite golden files")

// goldenConfig pins every axis that feeds the snapshot: Quick fidelity,
// sequential workers (results are bit-identical for any worker count, so
// this is belt-and-braces, not a requirement).
func goldenConfig() Config {
	return Config{Quick: true, Workers: 1}
}

// maskColumns replaces every cell of the named columns with "-". Wall-clock
// columns (decision latency) are real measurements and cannot be
// golden-tested; the table's structure and its deterministic columns can.
func maskColumns(t Table, cols ...string) Table {
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

// checkGolden renders the table and compares it byte-for-byte against
// testdata/<name>.golden, rewriting the file under -update.
func checkGolden(t *testing.T, name string, tbl Table) {
	t.Helper()
	var b strings.Builder
	if _, err := tbl.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden snapshot.\n--- want\n%s--- got\n%s\nIf the change is intentional, regenerate with -update.",
			path, want, got)
	}
}

// TestGoldenF1 pins the cap-event table: any refactor that shifts the
// reproduced numbers (workload realisation, stepping order, controller
// decisions) trips this before it can silently land.
func TestGoldenF1(t *testing.T) {
	tbl, err := F1PowerTrace(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "f1", tbl)
}

// TestGoldenSweep pins the F2–F4 family through the registry: each runner
// runs its own benchmark × controller grid and reduces it.
func TestGoldenSweep(t *testing.T) {
	for _, id := range []string{"F2", "F3", "F4"} {
		run, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := run(goldenConfig())
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, strings.ToLower(id), tbl)
	}
}

// TestGoldenClaims pins the claims table on both quick seeds: every cell is
// counted or simulated, so nothing is masked, and a change that moves a
// claim's number or verdict on either seed trips it.
func TestGoldenClaims(t *testing.T) {
	run, err := ByID("CLAIMS")
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := run(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "claims", tbl)
}

// TestGoldenF5 pins F5's structure and modelled columns. The measured
// latency columns are wall-clock and are masked out; the NoC gather
// latency is modelled and must stay exact.
func TestGoldenF5(t *testing.T) {
	tbl, err := F5ControllerScaling(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	tbl = maskColumns(tbl,
		"od-rl(µs)", "maxbips(µs)", "steepest-drop(µs)", "pid(µs)")
	checkGolden(t, "f5", tbl)
}

// TestGoldenF14 pins the barrier table: every core runs a shared-state
// BarrierApp lane, so it covers the kernel's WorkSource path (work-coupled
// advance, barrier release, the lane phase memo) that F1–F5's independent
// Markov sources never reach.
func TestGoldenF14(t *testing.T) {
	tbl, err := F14Barrier(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "f14", tbl)
}

// TestGoldenTables pins every other deterministic table at quick fidelity,
// so a change to a setting or a random stream that only these experiments
// reach (the per-core workload jitter, the seed sweep, the learning
// curves) trips a golden too.
func TestGoldenTables(t *testing.T) {
	for _, id := range []string{
		"T1", "T2", "F6", "F7", "F8", "F9", "F10", "F11", "F12", "F13",
		"F15", "F16", "F17", "F19",
	} {
		t.Run(id, func(t *testing.T) {
			run, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			tbl, err := run(goldenConfig())
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, strings.ToLower(id), tbl)
		})
	}
}

// TestGoldenF18 pins the fault-intensity table: stuck sensors, telemetry
// blackouts, dropped and clamped actuation, dead cores and cap transients,
// with the OD-RL stale-telemetry watchdog armed — the fault path, including
// dead-core retirement and agents held out of lockstep by the watchdog.
func TestGoldenF18(t *testing.T) {
	tbl, err := F18FaultIntensity(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "f18", tbl)
}
