package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/manycore"
	"repro/internal/metrics"
	"repro/internal/sim"
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

// TestF13IslandAgentArmsWatchdog: F13's island agent is configured as the
// factory's od-rl, so on a faulted run it arms the stale-telemetry
// watchdog every other OD-RL in the table arms: once an island's readings
// have repeated exactly for the watchdog's window, its cores fall back to
// the lowest level.
func TestF13IslandAgentArmsWatchdog(t *testing.T) {
	opts := sim.DefaultOptions()
	opts.Cores = 16
	plan := fault.Scaled(0.5)
	opts.FaultPlan = &plan
	env, err := sim.EnvFor(opts)
	if err != nil {
		t.Fatal(err)
	}
	if env.WatchdogEpochs == 0 {
		t.Fatal("a faulted run's environment arms no watchdog")
	}
	c, err := islandODRL(4, 4, 2, 2)(env)
	if err != nil {
		t.Fatal(err)
	}
	defer release(c)
	// Frozen readings: every core reports the same sample every epoch.
	tel := manycore.Telemetry{EpochS: 1e-3, ChipPowerW: 28, TruePowerW: 28, Cores: make([]manycore.CoreTelemetry, 16)}
	for i := range tel.Cores {
		tel.Cores[i] = manycore.CoreTelemetry{Level: 4, IPS: 2e9, PowerW: 1.5, TempK: 330, MemBoundedness: 0.2}
	}
	out := make([]int, 16)
	for e := 0; e <= env.WatchdogEpochs+5; e++ {
		tel.TimeS = float64(e) * tel.EpochS
		c.Decide(&tel, 40, out)
	}
	for i, l := range out {
		if l != 0 {
			t.Errorf("core %d at level %d after %d epochs of frozen readings, want the watchdog's level 0", i, l, env.WatchdogEpochs+6)
		}
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

// quickGrids runs the grids CLAIMS judges in quick mode: seeds 1 and 2.
func quickGrids(t *testing.T) []Grid {
	t.Helper()
	var grids []Grid
	_, _, err := ReduceGrids("CLAIMS", quickCfg(), func(seed uint64) (Grid, error) {
		cfg := quickCfg()
		cfg.Seed = seed
		g, err := RunGrid(cfg)
		grids = append(grids, g)
		return g, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(grids) != 2 || grids[0].Config.Seed != 1 || grids[1].Config.Seed != 2 {
		t.Fatalf("quick CLAIMS read %d grids, want seeds 1 and 2", len(grids))
	}
	return grids
}

// TestVerifyClaims: the claims table has one row per claim, each judged on
// both quick seeds, and all four pass. Every cell is counted or simulated,
// so a second judgement of the same grids repeats the table exactly.
func TestVerifyClaims(t *testing.T) {
	// At full fidelity the claims read five seeds from the configured one.
	var seeds []uint64
	if _, _, err := ReduceGrids("CLAIMS", Config{Seed: 3}, func(seed uint64) (Grid, error) {
		seeds = append(seeds, seed)
		return Grid{Config: Config{Seed: seed}}, nil
	}); err != nil || !reflect.DeepEqual(seeds, []uint64{3, 4, 5, 6, 7}) {
		t.Fatalf("full CLAIMS from seed 3 read seeds %v (err %v), want 3–7", seeds, err)
	}

	grids := quickGrids(t)
	tbl, err := Claims(grids)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("got %d claim rows, want 4", len(tbl.Rows))
	}
	for i, row := range tbl.Rows {
		if want := fmt.Sprintf("C%d", i+1); row[0] != want || len(row) != len(tbl.Header) {
			t.Fatalf("row %d = %q, want claim %s with %d cells", i, row, want, len(tbl.Header))
		}
		if row[5] != "2/2" || row[6] != "PASS" {
			t.Errorf("%s: %s seeds passed, verdict %q", row[0], row[5], row[6])
		}
	}
	if err := tbl.Failed(); err != nil {
		t.Errorf("passing table failed: %v", err)
	}
	again, err := Claims(grids)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tbl, again) {
		t.Fatalf("claims table did not repeat:\n%+v\n%+v", tbl, again)
	}
}

// TestClaimsFailOnOneSeed: a claim that fails on one seed fails the row and
// names that seed, while the first seed's measurement still reads as a
// pass and the other claims are untouched.
func TestClaimsFailOnOneSeed(t *testing.T) {
	grids := quickGrids(t)
	// On the second seed, od-rl overshoots on the last benchmark, where no
	// baseline does, as much as the worst baseline does over the whole
	// suite: its C1 reduction falls to 0%, while C2 (judged where the
	// baselines overshoot) and C3 (efficiency) keep passing.
	g := grids[1]
	worst := 0.0
	for _, name := range []string{"maxbips", "steepest-drop", "pid"} {
		sum := 0.0
		for _, bench := range g.Config.Benchmarks {
			sum += g.Summaries[bench][name].OverJ
		}
		worst = max(worst, sum)
	}
	runs := map[string]map[string]metrics.Summary{}
	for bench, byCtrl := range g.Summaries {
		runs[bench] = map[string]metrics.Summary{}
		for name, s := range byCtrl {
			runs[bench][name] = s
		}
	}
	last := g.Config.Benchmarks[len(g.Config.Benchmarks)-1]
	s := runs[last]["od-rl"]
	s.OverJ = worst
	runs[last]["od-rl"] = s
	grids[1] = Grid{Config: g.Config, Summaries: runs}

	tbl, err := Claims(grids)
	if err != nil {
		t.Fatal(err)
	}
	c1 := tbl.Rows[0]
	if c1[5] != "1/2" || c1[6] != "FAIL on seed 2" || !strings.HasSuffix(c1[2], "100.0% reduction") {
		t.Errorf("C1 row %q, want seed 1's pass measured and a failure on seed 2", c1)
	}
	if err := tbl.Failed(); err == nil || err.Error() != "claims failed: C1 FAIL on seed 2" {
		t.Errorf("Failed() = %v, want C1 failing on seed 2 alone", err)
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

// TestWriteReport: a report's head is its title and the normalised axes
// every experiment runs at; the tables' markdown, the claims first, follows
// directly.
func TestWriteReport(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteReportHead(&buf, Config{Quick: true}); err != nil {
		t.Fatal(err)
	}
	const want = "# OD-RL reproduction report\n\nConfiguration: 16 cores, 55 W budget, seed 1 (quick mode).\n\n"
	if got := buf.String(); got != want {
		t.Errorf("report head:\n%q\nwant\n%q", got, want)
	}
}
