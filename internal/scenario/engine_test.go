package scenario

import (
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/monitor"
	"repro/internal/sim"
)

// TestComparisonTable pins the comparison run kind: one row per
// (seed × workload × controller) in spec order, with the shared summary
// columns and no wall-clock cells.
func TestComparisonTable(t *testing.T) {
	spec := Spec{
		Name:        "grid",
		Benchmarks:  []string{"canneal", "dedup"},
		Controllers: []string{"pid", "greedy"},
		Cores:       4,
		BudgetW:     8,
		WarmupS:     0.05,
		MeasureS:    0.1,
		Seeds:       []uint64{3, 5},
		Workers:     1,
	}
	eng := &Engine{}
	tbl, info, err := eng.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if info.CacheHit {
		t.Error("cacheless engine reported a hit")
	}
	if tbl.ID != "RUN" || tbl.Title != "grid" {
		t.Errorf("table identity = %q/%q", tbl.ID, tbl.Title)
	}
	if got, want := len(tbl.Rows), 2*2*2; got != want {
		t.Fatalf("row count = %d, want %d", got, want)
	}
	wantHeader := []string{"seed", "workload", "controller", "cores", "budget(W)",
		"BIPS", "mean(W)", "peak(W)", "over(J)", "over-time(%)", "BIPS/W"}
	if !slices.Equal(tbl.Header, wantHeader) {
		t.Errorf("header = %v, want %v", tbl.Header, wantHeader)
	}
	// Row order: seeds outermost, then workloads, then controllers.
	if tbl.Rows[0][0] != "3" || tbl.Rows[0][1] != "canneal" || tbl.Rows[0][2] != "pid" {
		t.Errorf("first row = %v", tbl.Rows[0])
	}
	last := tbl.Rows[len(tbl.Rows)-1]
	if last[0] != "5" || last[1] != "dedup" || last[2] != "greedy" {
		t.Errorf("last row = %v", last)
	}
	for _, row := range tbl.Rows {
		if row[3] != "4" {
			t.Errorf("cores cell = %q, want 4", row[3])
		}
	}
}

// TestComparisonDeterministicAcrossWorkers re-runs the same spec at -j1
// and -j4 without a cache and requires byte-identical rendered tables.
func TestComparisonDeterministicAcrossWorkers(t *testing.T) {
	render := func(workers int) string {
		spec := tinySpec()
		spec.Workload = ""
		spec.Benchmarks = []string{"canneal", "dedup"}
		spec.Seeds = []uint64{3, 5}
		spec.Workers = workers
		tbl, _, err := (&Engine{}).Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if _, err := tbl.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if seq, par := render(1), render(4); seq != par {
		t.Errorf("comparison table differs across worker counts:\n--- j1\n%s--- j4\n%s", seq, par)
	}
}

// TestSweepTable pins the sweep run kind: values outermost, controllers
// inner, sweep values rendered in shortest round-trippable form, and each
// point run as a direct sim.Run built with sim.EnvFor, so an epoch point
// decides at the cadence its epoch length implies.
func TestSweepTable(t *testing.T) {
	t.Run("budget", func(t *testing.T) {
		spec := Spec{
			Workload:    "canneal",
			Controllers: []string{"pid"},
			Cores:       4,
			WarmupS:     0.05,
			MeasureS:    0.1,
			Workers:     1,
			Sweep:       &Sweep{Param: "budget", Values: []float64{6, 8.5}},
		}
		tbl, _, err := (&Engine{}).Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if tbl.ID != "SWEEP" {
			t.Errorf("table ID = %q", tbl.ID)
		}
		if len(tbl.Rows) != 2 {
			t.Fatalf("row count = %d, want 2", len(tbl.Rows))
		}
		if tbl.Header[0] != "budget" {
			t.Errorf("sweep column header = %q", tbl.Header[0])
		}
		if tbl.Rows[0][0] != "6" || tbl.Rows[1][0] != "8.5" {
			t.Errorf("sweep value cells = %q, %q", tbl.Rows[0][0], tbl.Rows[1][0])
		}
		// The swept budget must actually reach the runs.
		if tbl.Rows[0][3] != "6.000" || tbl.Rows[1][3] != "8.500" {
			t.Errorf("budget cells = %q, %q", tbl.Rows[0][3], tbl.Rows[1][3])
		}
		if !slices.Contains(tbl.Notes, "workload canneal") {
			t.Errorf("notes missing workload: %v", tbl.Notes)
		}
	})
	t.Run("epoch", func(t *testing.T) {
		spec := Spec{
			Workload:    "mix",
			Controllers: []string{"od-rl"},
			Cores:       16,
			BudgetW:     20,
			WarmupS:     0.2,
			MeasureS:    0.4,
			Seeds:       []uint64{1},
			Workers:     1,
			Sweep:       &Sweep{Param: "epoch", Values: []float64{0.002}},
		}
		tbl, _, err := (&Engine{}).Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		opts := sim.DefaultOptions()
		opts.Workload, opts.Cores, opts.BudgetW = spec.Workload, spec.Cores, spec.BudgetW
		opts.WarmupS, opts.MeasureS, opts.Seed, opts.Workers = spec.WarmupS, spec.MeasureS, 1, 1
		opts.EpochS = 0.002
		env, err := sim.EnvFor(opts)
		if err != nil {
			t.Fatal(err)
		}
		c, err := sim.NewController("od-rl", env)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(opts, c)
		if err != nil {
			t.Fatal(err)
		}
		want := summaryCells(res.Summary)
		if got := tbl.Rows[0][len(tbl.Rows[0])-len(want):]; !slices.Equal(got, want) {
			t.Errorf("SWEEP row %v, direct run %v", got, want)
		}
	})
}

// TestMonitoredColumns: fault plans and alert rules add the faults/alerts
// columns; plain runs must not carry them.
func TestMonitoredColumns(t *testing.T) {
	spec := tinySpec()
	tbl, _, err := (&Engine{}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Contains(tbl.Header, "faults") {
		t.Errorf("unmonitored run has a faults column: %v", tbl.Header)
	}

	spec.FaultPlan = &fault.Plan{DeadCoreFrac: 0.5}
	tbl, _, err = (&Engine{}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(tbl.Header, "faults") || !slices.Contains(tbl.Header, "alerts") {
		t.Fatalf("fault run missing faults/alerts columns: %v", tbl.Header)
	}
	// Half the (tiny) chip dies: the injector must report at least one
	// core-death event in the faults column.
	faultsCol := slices.Index(tbl.Header, "faults")
	if tbl.Rows[0][faultsCol] == "0" {
		t.Errorf("dead-core run reported zero faults: %v", tbl.Rows[0])
	}
}

// TestEngineExperimentDispatch: an experiment spec must produce the exact
// table the hand-coded runner produces for the derived config.
func TestEngineExperimentDispatch(t *testing.T) {
	spec := Spec{Experiment: "T1", Quick: true, Workers: 1}
	got, _, err := (&Engine{}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiments.T1Platform(experiments.Config{Quick: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var gb, wb strings.Builder
	if _, err := got.WriteTo(&gb); err != nil {
		t.Fatal(err)
	}
	if _, err := want.WriteTo(&wb); err != nil {
		t.Fatal(err)
	}
	if gb.String() != wb.String() {
		t.Errorf("engine T1 differs from direct runner:\n--- engine\n%s--- direct\n%s", gb.String(), wb.String())
	}
}

// TestEngineRejectsInvalidSpec: validation failures surface before any
// simulation work and without touching the cache.
func TestEngineRejectsInvalidSpec(t *testing.T) {
	cache, err := NewCache("")
	if err != nil {
		t.Fatal(err)
	}
	eng := &Engine{Cache: cache}
	_, _, err = eng.Run(Spec{Controllers: []string{"clippy"}})
	if err == nil || !strings.Contains(err.Error(), "unknown controller") {
		t.Fatalf("err = %v", err)
	}
	if cache.Len() != 0 {
		t.Errorf("invalid spec left %d cache entries", cache.Len())
	}
}

// TestEngineStack: every run kind reports to the engine's stack, including
// a monitored spec, whose per-run monitor takes the monitor slot while the
// stack's monitor joins the observers it tees with.
func TestEngineStack(t *testing.T) {
	sweep := tinySpec()
	sweep.Sweep = &Sweep{Param: "budget", Values: []float64{6, 8}}
	monitored := tinySpec()
	p := fault.Scaled(0.5)
	monitored.FaultPlan = &p
	cases := []struct {
		name string
		spec Spec
		want int
	}{
		{"comparison", tinySpec(), 1},
		{"sweep", sweep, 2},
		{"experiment", Spec{Experiment: "F17", Quick: true}, 2},
		{"monitored", monitored, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mon := monitor.New(monitor.Options{})
			eng := &Engine{Stack: sim.Stack{Monitor: mon}}
			if _, _, err := eng.Run(tc.spec); err != nil {
				t.Fatal(err)
			}
			if got := len(mon.Runs()); got != tc.want {
				t.Fatalf("stack monitor saw %d runs, want %d", got, tc.want)
			}
		})
	}
}

// TestFaultedF4MatchesComparison: a faulted experiment builds its
// controllers the way the engine's comparison runs do (sim.EnvFor arms
// OD-RL's stale-telemetry watchdog), so F4's od-rl BIPS/W cells equal the
// comparison table's for the same runs.
func TestFaultedF4MatchesComparison(t *testing.T) {
	plan := fault.Scaled(1)
	g, err := experiments.RunGrid(experiments.Config{Quick: true, FaultPlan: &plan})
	if err != nil {
		t.Fatal(err)
	}
	f4, n := experiments.F4EnergyEfficiency(g), g.Config
	grid, _, err := (&Engine{}).Run(Spec{
		Benchmarks:  n.Benchmarks,
		Controllers: []string{"od-rl"},
		BudgetW:     n.BudgetW,
		Seeds:       []uint64{n.Seed},
		Quick:       true,
		FaultPlan:   &plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	odrl := slices.Index(f4.Header, "od-rl")
	eff := slices.Index(grid.Header, "BIPS/W")
	for i, bench := range n.Benchmarks {
		if got, want := f4.Rows[i][odrl], grid.Rows[i][eff]; f4.Rows[i][0] != bench || got != want {
			t.Errorf("%s: F4 od-rl BIPS/W %s (row %v), comparison table %s", bench, got, f4.Rows[i][0], want)
		}
	}
}

// runCounter is an observer that counts the runs it sees begin.
type runCounter struct{ n atomic.Int64 }

func (c *runCounter) BeginRun(meta obs.RunMeta) obs.RunObserver {
	c.n.Add(1)
	return obs.Nop().BeginRun(meta)
}

// quickGridRuns is the size of the quick-mode grid: three benchmarks by
// the six default controllers.
const quickGridRuns = 3 * 6

// TestEngineRunsOneGrid: F2, F3, F4 and their Grid calls at the same axes
// start one grid's runs between them on one engine, and CLAIMS adds only
// its second quick seed's grid: its first seed's is F2's.
func TestEngineRunsOneGrid(t *testing.T) {
	runs := &runCounter{}
	eng := &Engine{Stack: sim.Stack{Observer: runs}}
	for _, id := range []string{"F2", "F3", "F4", "CLAIMS"} {
		spec := goldenSpec(t, id, 2)
		if _, _, err := eng.Run(spec); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if _, err := eng.Grid(spec); err != nil {
			t.Fatalf("%s grid: %v", id, err)
		}
		want := int64(quickGridRuns)
		if id == "CLAIMS" {
			want = 2 * quickGridRuns
		}
		if got := runs.n.Load(); got != want {
			t.Errorf("after %s one engine had started %d runs, want %d", id, got, want)
		}
	}
}

// TestEnginesShareNoGrid: a grid belongs to one engine, so a second fresh
// engine with the same stack runs the whole grid again for F2.
func TestEnginesShareNoGrid(t *testing.T) {
	runs := &runCounter{}
	stack := sim.Stack{Observer: runs}
	for i := 1; i <= 2; i++ {
		if _, _, err := (&Engine{Stack: stack}).Run(goldenSpec(t, "F2", 2)); err != nil {
			t.Fatal(err)
		}
		if got, want := runs.n.Load(), int64(i*quickGridRuns); got != want {
			t.Fatalf("after %d fresh engines: %d runs, want %d", i, got, want)
		}
	}
}

// TestEngineGridConcurrent: callers racing on one engine may each run the
// grid, but they share its store without a data race and all get grids
// that tabulate the same (summaries differ only in wall-clock fields).
func TestEngineGridConcurrent(t *testing.T) {
	// A one-run grid keeps the callers' store accesses close together,
	// so the race detector sees them.
	spec := Spec{
		Experiment: "F2", Cores: 4, WarmupS: 0.01, MeasureS: 0.02, Workers: 1,
		Controllers: []string{"pid"}, Benchmarks: []string{"canneal"},
	}
	eng := &Engine{}
	grids := make([]experiments.Grid, 4)
	var wg sync.WaitGroup
	for i := range grids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g, err := eng.Grid(spec)
			if err != nil {
				t.Error(err)
			}
			grids[i] = g
		}()
	}
	wg.Wait()
	want := experiments.F2Overshoot(grids[0])
	for i, g := range grids {
		if got := experiments.F2Overshoot(g); !reflect.DeepEqual(got, want) {
			t.Errorf("caller %d got a grid whose F2 differs:\n%+v\nvs\n%+v", i, got, want)
		}
	}
}

// TestFailedGridNotKept: a grid whose runs fail is not kept, so the next
// call runs it again instead of replaying the failure.
func TestFailedGridNotKept(t *testing.T) {
	// Validate refuses the unknown benchmark, so the engine's body past
	// validation is driven directly: the canneal run starts and finishes,
	// and the other fails in sim.Run's option validation.
	spec := Spec{
		Experiment: "F2", Cores: 4, WarmupS: 0.01, MeasureS: 0.02, Workers: 1,
		Controllers: []string{"pid"}, Benchmarks: []string{"canneal", "doom"},
	}
	if err := spec.Validate(); err == nil {
		t.Fatal("Validate accepted an unknown benchmark")
	}
	runs := &runCounter{}
	eng := &Engine{Stack: sim.Stack{Observer: runs}}
	for attempt := int64(1); attempt <= 2; attempt++ {
		if _, err := eng.grid(spec); err == nil {
			t.Fatalf("attempt %d: a grid with an unknown benchmark ran without error", attempt)
		}
		if got := runs.n.Load(); got != attempt {
			t.Fatalf("attempt %d: %d runs started in all, want %d", attempt, got, attempt)
		}
	}
}

// TestGridKeysEveryGridAxis: a grid an engine keeps for one spec must not
// serve another that differs only in an axis the grid reads. Each case
// runs first, then second, on one engine, and compares second's table with
// the one a fresh engine gives.
func TestGridKeysEveryGridAxis(t *testing.T) {
	// At 8 W, pid overshoots after a 0.3 s warm-up and not after 0.1 s.
	small := Spec{
		Experiment: "F2", Cores: 4, BudgetW: 8, MeasureS: 0.1, WarmupS: 0.1,
		Controllers: []string{"od-rl", "pid"}, Benchmarks: []string{"canneal"},
	}
	warm := small
	warm.WarmupS = 0.3
	for _, tc := range []struct {
		name          string
		first, second Spec
	}{
		{"controllers",
			Spec{Experiment: "F2", Quick: true, Controllers: []string{"od-rl", "pid"}},
			Spec{Experiment: "F2", Quick: true}},
		{"benchmarks",
			Spec{Experiment: "F3", Quick: true, Benchmarks: []string{"canneal"}},
			Spec{Experiment: "F3", Quick: true}},
		{"warmup", small, warm},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := &Engine{}
			if _, _, err := eng.Run(tc.first); err != nil {
				t.Fatal(err)
			}
			got, _, err := eng.Run(tc.second)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := (&Engine{}).Run(tc.second)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("table after another spec's grid differs from a fresh engine's:\n--- fresh\n%+v\n--- same engine\n%+v", want, got)
			}
		})
	}
}
