package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func quickCfg() Config {
	c := Default()
	c.Quick = true
	return c
}

func mustRun(t *testing.T, id string) Table {
	t.Helper()
	run, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := run(quickCfg())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if tbl.ID != id {
		t.Fatalf("table reports ID %q, want %q", tbl.ID, id)
	}
	if len(tbl.Rows) == 0 {
		t.Fatalf("%s produced no rows", id)
	}
	for i, row := range tbl.Rows {
		if len(row) != len(tbl.Header) {
			t.Fatalf("%s row %d has %d cells for %d columns", id, i, len(row), len(tbl.Header))
		}
	}
	return tbl
}

func TestRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Run == nil {
			t.Fatal("registry entry incomplete")
		}
		if ids[e.ID] {
			t.Fatalf("duplicate experiment ID %s", e.ID)
		}
		ids[e.ID] = true
	}
	want := []string{"T1", "T2", "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9", "F10"}
	for _, id := range want {
		if !ids[id] {
			t.Fatalf("missing experiment %s", id)
		}
	}
	if _, err := ByID("F99"); err == nil {
		t.Fatal("expected error for unknown ID")
	}
}

func TestTableWriteTo(t *testing.T) {
	tbl := Table{
		ID: "X", Title: "demo",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "22"}},
		Notes:  []string{"hello"},
	}
	var buf bytes.Buffer
	if _, err := tbl.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"X", "demo", "a", "22", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestT1Platform(t *testing.T) {
	tbl := mustRun(t, "T1")
	joined := ""
	for _, r := range tbl.Rows {
		joined += strings.Join(r, " ") + "\n"
	}
	for _, want := range []string{"cores", "VF levels", "GHz", "uncore"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("T1 missing %q:\n%s", want, joined)
		}
	}
}

func TestT2Workloads(t *testing.T) {
	tbl := mustRun(t, "T2")
	if len(tbl.Rows) != 10 {
		t.Fatalf("T2 has %d rows, want 10 benchmarks", len(tbl.Rows))
	}
	// canneal must be more memory-bound than swaptions.
	var canneal, swaptions float64
	for _, r := range tbl.Rows {
		v, err := strconv.ParseFloat(r[3], 64)
		if err != nil {
			t.Fatalf("bad mem-bound cell %q", r[3])
		}
		switch r[0] {
		case "canneal":
			canneal = v
		case "swaptions":
			swaptions = v
		}
	}
	if canneal <= swaptions {
		t.Fatalf("canneal (%v) should be more memory-bound than swaptions (%v)", canneal, swaptions)
	}
}

func TestF1PowerTrace(t *testing.T) {
	cfg := quickCfg()
	cfg.Controllers = []string{"pid", "static"}
	tbl, err := F1PowerTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("F1 has %d rows", len(tbl.Rows))
	}
}

func TestF2F3F4ShareSweep(t *testing.T) {
	cfg := quickCfg()
	cfg.Controllers = []string{"od-rl", "pid"}
	g, err := RunGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f2, f3, f4 := F2Overshoot(g), F3ThroughputPerOverEnergy(g), F4EnergyEfficiency(g)
	benches := len(cfg.Normalized().Benchmarks)
	if len(f2.Rows) != benches+1 { // per-benchmark rows + TOTAL
		t.Fatalf("F2 rows = %d, want %d", len(f2.Rows), benches+1)
	}
	if f2.Rows[len(f2.Rows)-1][0] != "TOTAL" {
		t.Fatal("F2 missing TOTAL row")
	}
	if len(f3.Rows) != benches {
		t.Fatalf("F3 rows = %d, want %d", len(f3.Rows), benches)
	}
	if len(f4.Rows) != benches+1 { // per-benchmark rows + GEOMEAN
		t.Fatalf("F4 rows = %d, want %d", len(f4.Rows), benches+1)
	}
	if f4.Rows[len(f4.Rows)-1][0] != "GEOMEAN" {
		t.Fatal("F4 missing GEOMEAN row")
	}
}

func TestF5ControllerScaling(t *testing.T) {
	cfg := quickCfg()
	tbl, err := F5ControllerScaling(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("quick F5 has %d rows, want 2", len(tbl.Rows))
	}
	// od-rl column (index 2) must report positive latency.
	v, err := strconv.ParseFloat(tbl.Rows[0][2], 64)
	if err != nil || v <= 0 {
		t.Fatalf("bad od-rl latency cell %q", tbl.Rows[0][2])
	}
}

func TestF6Convergence(t *testing.T) {
	tbl := mustRun(t, "F6")
	if len(tbl.Rows) < 4 {
		t.Fatalf("F6 has %d windows", len(tbl.Rows))
	}
}

func TestF7BudgetSweep(t *testing.T) {
	tbl := mustRun(t, "F7")
	if len(tbl.Rows) != 2 {
		t.Fatalf("quick F7 has %d rows", len(tbl.Rows))
	}
	// Throughput must rise with budget for od-rl (column 1).
	lo, _ := strconv.ParseFloat(tbl.Rows[0][1], 64)
	hi, _ := strconv.ParseFloat(tbl.Rows[1][1], 64)
	if hi <= lo {
		t.Fatalf("od-rl BIPS did not grow with budget: %v -> %v", lo, hi)
	}
}

func TestF8CoreScaling(t *testing.T) {
	tbl := mustRun(t, "F8")
	// Total throughput must grow with core count for od-rl (column 2).
	lo, _ := strconv.ParseFloat(tbl.Rows[0][2], 64)
	hi, _ := strconv.ParseFloat(tbl.Rows[1][2], 64)
	if hi <= lo {
		t.Fatalf("od-rl BIPS did not grow with cores: %v -> %v", lo, hi)
	}
}

func TestF9Ablation(t *testing.T) {
	tbl := mustRun(t, "F9")
	labels := map[string]bool{}
	for _, r := range tbl.Rows {
		labels[r[0]] = true
	}
	for _, want := range []string{"od-rl", "od-rl-norealloc", "od-rl sarsa"} {
		if !labels[want] {
			t.Fatalf("F9 missing variant %q", want)
		}
	}
}

func TestF10Thermal(t *testing.T) {
	tbl := mustRun(t, "F10")
	// Static column temperature (column 3) must not decrease with budget.
	lo, _ := strconv.ParseFloat(tbl.Rows[0][3], 64)
	hi, _ := strconv.ParseFloat(tbl.Rows[len(tbl.Rows)-1][3], 64)
	if hi < lo {
		t.Fatalf("static peak temperature fell with a larger budget: %v -> %v", lo, hi)
	}
}

func TestF11Variation(t *testing.T) {
	tbl := mustRun(t, "F11")
	if len(tbl.Rows) != 2 {
		t.Fatalf("quick F11 has %d rows, want 2", len(tbl.Rows))
	}
	// First column is sigma; rows must cover 0 and a positive sigma.
	if tbl.Rows[0][0] != "0" {
		t.Fatalf("first sigma = %q, want 0", tbl.Rows[0][0])
	}
}

func TestF12WarmStart(t *testing.T) {
	tbl := mustRun(t, "F12")
	if len(tbl.Rows) < 2 {
		t.Fatalf("F12 has %d windows", len(tbl.Rows))
	}
	// Warm BIPS in the first window should be at least cold BIPS (the
	// warm policy starts converged; cold starts exploring).
	cold, err1 := strconv.ParseFloat(tbl.Rows[0][1], 64)
	warm, err2 := strconv.ParseFloat(tbl.Rows[0][4], 64)
	if err1 != nil || err2 != nil {
		t.Fatalf("bad cells %q %q", tbl.Rows[0][1], tbl.Rows[0][4])
	}
	if warm < cold*0.95 {
		t.Fatalf("warm first-window BIPS %v well below cold %v", warm, cold)
	}
	// The convergence columns must parse as valid percentages.
	for _, col := range []int{3, 6} {
		for _, r := range tbl.Rows {
			v, err := strconv.ParseFloat(r[col], 64)
			if err != nil || v < 0 || v > 100 {
				t.Fatalf("bad conv(%%) cell %q", r[col])
			}
		}
	}
}

func TestF13Islands(t *testing.T) {
	tbl := mustRun(t, "F13")
	if len(tbl.Rows) != 2 {
		t.Fatalf("quick F13 has %d rows, want 2", len(tbl.Rows))
	}
	if tbl.Rows[0][0] != "per-core" || tbl.Rows[1][0] != "chip-wide" {
		t.Fatalf("granularity labels wrong: %v", tbl.Rows)
	}
}

func TestF14Barrier(t *testing.T) {
	tbl := mustRun(t, "F14")
	if len(tbl.Rows) != 2 {
		t.Fatalf("quick F14 has %d rows, want 2", len(tbl.Rows))
	}
	// Supersteps must actually happen for every controller.
	for _, r := range tbl.Rows {
		v, err := strconv.ParseFloat(r[1], 64)
		if err != nil || v <= 0 {
			t.Fatalf("controller %s made no progress: %q", r[0], r[1])
		}
	}
}

// quickClaims judges the claims on a fresh quick grid.
func quickClaims(t *testing.T) []ClaimResult {
	t.Helper()
	g, err := RunGrid(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	results, err := Claims(g)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

func TestVerifyClaims(t *testing.T) {
	results := quickClaims(t)
	if len(results) != 4 {
		t.Fatalf("got %d claims, want 4", len(results))
	}
	seen := map[string]bool{}
	for _, r := range results {
		if r.ID == "" || r.Claim == "" || r.Measured == "" {
			t.Fatalf("incomplete claim result %+v", r)
		}
		seen[r.ID] = true
	}
	for _, id := range []string{"C1", "C2", "C3", "C4"} {
		if !seen[id] {
			t.Fatalf("missing claim %s", id)
		}
	}

	// C4 is judged on counted work, so the quick verdict and work ratio
	// repeat exactly; only the wall-clock part of the line may move.
	again := quickClaims(t)
	c4, c4Again := results[3], again[3]
	if c4.ID != "C4" || c4Again.ID != "C4" {
		t.Fatalf("fourth claim is %s/%s, want C4", c4.ID, c4Again.ID)
	}
	if !c4.Pass || !c4Again.Pass {
		t.Fatalf("quick C4 failed: %s", c4.Measured)
	}
	work := func(m string) string { return strings.SplitN(m, "; wall clock", 2)[0] }
	if w := work(c4.Measured); w == c4.Measured || w != work(c4Again.Measured) {
		t.Fatalf("C4 work ratio did not repeat:\n%s\n%s", c4.Measured, c4Again.Measured)
	}
}

func TestF15Seeds(t *testing.T) {
	tbl := mustRun(t, "F15")
	if len(tbl.Rows) != 2 {
		t.Fatalf("quick F15 has %d rows, want 2", len(tbl.Rows))
	}
	// CI cells must parse as non-negative numbers.
	for _, r := range tbl.Rows {
		for _, col := range []int{2, 4, 6} {
			v, err := strconv.ParseFloat(r[col], 64)
			if err != nil || v < 0 {
				t.Fatalf("bad CI cell %q", r[col])
			}
		}
	}
}

func TestF16Server(t *testing.T) {
	tbl := mustRun(t, "F16")
	if len(tbl.Rows) != 2 {
		t.Fatalf("quick F16 has %d rows, want 2", len(tbl.Rows))
	}
	for _, r := range tbl.Rows {
		jobs, err := strconv.ParseFloat(r[1], 64)
		if err != nil || jobs <= 0 {
			t.Fatalf("controller %s completed no jobs: %q", r[0], r[1])
		}
	}
}

func TestF17Hetero(t *testing.T) {
	tbl := mustRun(t, "F17")
	if len(tbl.Rows) != 2 {
		t.Fatalf("quick F17 has %d rows, want 2", len(tbl.Rows))
	}
	// PID must command identical mean levels for both classes (uniform),
	// within rounding.
	for _, r := range tbl.Rows {
		if r[0] == "pid" && r[5] != r[6] {
			t.Fatalf("pid levels differ across classes: %q vs %q", r[5], r[6])
		}
	}
}

func TestWriteMarkdown(t *testing.T) {
	tbl := Table{
		ID: "X", Title: "demo",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}},
		Notes:  []string{"n"},
	}
	var buf bytes.Buffer
	if err := tbl.WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"### X — demo", "| a | b |", "| 1 | 2 |", "> n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q:\n%s", want, out)
		}
	}
}

// TestWriteReport: a report opens with its title and the normalised axes
// every experiment runs at, and the head ends with the Experiments heading
// that the tables' markdown follows.
func TestWriteReport(t *testing.T) {
	g, err := RunGrid(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteReportHead(&buf, g); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	const top = "# OD-RL reproduction report\n\nConfiguration: 16 cores, 55 W budget, seed 1 (quick mode).\n\n## Claim verification\n\n"
	if !strings.HasPrefix(out, top) {
		t.Errorf("report head does not open with the title and axes:\n%s", out)
	}
	if !strings.HasSuffix(out, "|\n\n## Experiments\n\n") {
		t.Errorf("report head does not end with the Experiments heading after the claim table:\n%s", out)
	}
}

// TestWriteReportWithVerification: the claim section is a markdown table
// with one row per verified claim, in order, each with a verdict.
func TestWriteReportWithVerification(t *testing.T) {
	g, err := RunGrid(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteReportHead(&buf, g); err != nil {
		t.Fatal(err)
	}
	results, err := Claims(g)
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(buf.String(), "## Claim verification\n\n| claim | paper | measured | verdict |\n| --- | --- | --- | --- |\n")
	if !ok {
		t.Fatalf("claim table missing:\n%s", buf.String())
	}
	section, _, _ = strings.Cut(section, "\n\n")
	rows := strings.Split(section, "\n")
	if len(rows) != len(results) || len(results) != 4 {
		t.Fatalf("%d claim rows for %d claims, want 4:\n%s", len(rows), len(results), section)
	}
	for i, r := range results {
		row := rows[i]
		if !strings.HasPrefix(row, "| "+r.ID+" | "+r.Claim+" | ") {
			t.Errorf("row %d = %q, want claim %s", i, row, r.ID)
		}
		if !strings.HasSuffix(row, " | PASS |") && !strings.HasSuffix(row, " | **FAIL** |") {
			t.Errorf("row %d = %q has no verdict", i, row)
		}
	}
}
