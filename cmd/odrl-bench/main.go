// Command odrl-bench regenerates the paper's evaluation: every table and
// figure listed in DESIGN.md's experiment index.
//
// Usage:
//
//	odrl-bench                 # run everything at full fidelity
//	odrl-bench -experiment F2  # one experiment
//	odrl-bench -quick          # small/short runs for smoke checks
//	odrl-bench -experiment CLAIMS -seed 3  # judge C1–C4 on seeds 3–7
//
// Output is aligned text tables on stdout, one block per experiment, in the
// format EXPERIMENTS.md records. When the CLAIMS table holds a failing
// verdict, the command exits 1 after writing every table.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/obs/ledger"
	"repro/internal/obs/session"
	"repro/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Overhead ceilings the -bench-monitor/-bench-learn/-bench-flight gates
// judge, as fractions of the bare epoch loop. Monitor and learn were
// recalibrated from 3% when the struct-of-arrays kernel made the loop ~1.7x
// faster: their absolute ns/epoch cost is unchanged, but the smaller
// denominator inflates the fraction (measured 0.6-3.7% on a single-CPU
// host). The flight recorder's ring push is much lighter (measured
// 0.8-1.0%); the gap to 3% absorbs scheduler noise.
const (
	monitorOverheadMax = 0.05
	learnOverheadMax   = 0.05
	flightOverheadMax  = 0.03
)

// benchFlags carries the non-observability flags into the dispatch body.
type benchFlags struct {
	experiment, cacheDir, faultSpec   string
	benchMon, benchLearn, benchFlight string
	outDir, reportFile                string
	quick                             bool
	cores, workers                    int
	budget                            float64
	seed                              uint64
}

// run is the whole CLI behind a testable seam. Exit code 2 means the
// invocation was malformed, 1 means a bench, an experiment or a claim
// failed.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("odrl-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		experiment  = fs.String("experiment", "all", "experiment ID (CLAIMS, T1, T2, F1..F19) or 'all'")
		cacheDir    = fs.String("cache", "", "content-addressed result cache directory shared with odrl-run ('' = no cache); experiment tables are cached in table and report modes, bench modes never")
		quick       = fs.Bool("quick", false, "shrink runs for a fast smoke pass")
		cores       = fs.Int("cores", 0, "override platform core count")
		budget      = fs.Float64("budget", 0, "override chip budget (W)")
		seed        = fs.Uint64("seed", 0, "override random seed")
		workers     = fs.Int("j", 0, "worker goroutines for run fan-out and chip sharding (0 = one per CPU, 1 = sequential); results are identical for any value")
		faultSpec   = fs.String("fault-plan", "", "inject faults into every run: an intensity in [0,1] for the canonical plan, or a plan JSON file path (F18 sweeps its own plans)")
		benchMon    = fs.String("bench-monitor", "", "measure the run-health monitor's epoch-loop overhead, write a JSON report (e.g. BENCH_monitor.json) to this file, then exit non-zero if it exceeds its ceiling")
		benchLearn  = fs.String("bench-learn", "", "measure learning introspection's epoch-loop overhead, write a JSON report (e.g. BENCH_learn.json) to this file, then exit non-zero if it exceeds its ceiling")
		benchFlight = fs.String("bench-flight", "", "measure the flight recorder's epoch-loop overhead, write a JSON report (e.g. BENCH_flight.json) to this file, then exit non-zero if it exceeds its ceiling")
		outDir      = fs.String("o", "", "also write one CSV per experiment into this directory")
		reportFile  = fs.String("report", "", "write a complete markdown report (claim verdicts + all tables) to this file; exits 1 after writing it if a claim fails")
		cpuProfile  = fs.String("cpuprofile", "", "write a CPU profile to this file on clean exit (go tool pprof format)")
		memProfile  = fs.String("memprofile", "", "write a heap profile to this file on clean exit, after a final GC")
	)
	obsFlags := session.Register(fs, 100)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := obsFlags.Validate(); err != nil {
		fmt.Fprintln(stderr, "odrl-bench:", err)
		return 2
	}
	// Zero means "no override". A negative override is malformed: refuse
	// it before the session opens, so it leaves no ledger record.
	for _, name := range []string{"cores", "budget", "j"} {
		if v, _ := strconv.ParseFloat(fs.Lookup(name).Value.String(), 64); v < 0 {
			fmt.Fprintf(stderr, "odrl-bench: -%s %g: must not be negative\n", name, v)
			return 2
		}
	}
	if *experiment != "all" {
		if _, err := experiments.ByID(*experiment); err != nil {
			fmt.Fprintln(stderr, "odrl-bench:", err)
			return 2
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, "odrl-bench:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "odrl-bench:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(stderr, "odrl-bench:", err)
				return
			}
			runtime.GC() // settle to live objects so the profile shows retained heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "odrl-bench:", err)
			}
			f.Close()
		}()
	}

	// Every execution mode — bench, report and tables — records a run; the
	// bench modes additionally fold their BENCH_*.json into the record so
	// odrl-obs can trend overheads across commits.
	sess, err := obsFlags.Start("odrl-bench", args, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "odrl-bench:", err)
		return 1
	}
	code, runErr := benchMain(stdout, stderr, sess, benchFlags{
		experiment: *experiment, cacheDir: *cacheDir, faultSpec: *faultSpec,
		benchMon: *benchMon, benchLearn: *benchLearn, benchFlight: *benchFlight,
		outDir: *outDir, reportFile: *reportFile, quick: *quick,
		cores: *cores, workers: *workers, budget: *budget, seed: *seed,
	})
	if err := sess.Close(stderr); runErr == nil && err != nil {
		code, runErr = 1, err
	}
	sess.Ledger.Finish(runErr)
	if runErr != nil {
		fmt.Fprintln(stderr, "odrl-bench:", runErr)
	}
	return code
}

// benchReport is the common shape of every bench mode's output.
type benchReport interface {
	WriteJSON(io.Writer) error
}

// emitBench renders a bench report once, records it in the run ledger (as
// both an artifact and per-case bench points), and writes the JSON file.
func emitBench(lcli *ledger.CLI, path, kind string, rep benchReport, points []ledger.BenchPoint) error {
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return err
	}
	for _, p := range points {
		lcli.AddBenchPoint(kind, p.Case, p.Metric, p.Value)
	}
	lcli.AddArtifact(filepath.Base(path), buf.Bytes())
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// benchMain dispatches one invocation. The int is the process exit code;
// a non-nil error is both printed and recorded in the run ledger. Bench
// modes build their own runs and never carry the session's stack: their
// off legs must stay observer-free or a comparison measures a layer
// against itself.
func benchMain(stdout, stderr io.Writer, sess *session.Session, f benchFlags) (int, error) {
	lcli := sess.Ledger
	overheads := []struct {
		layer, path string
		max         float64
	}{
		{"monitor", f.benchMon, monitorOverheadMax},
		{"learn", f.benchLearn, learnOverheadMax},
		{"flight", f.benchFlight, flightOverheadMax},
	}
	ran := false
	var gateErr error
	for _, g := range overheads {
		if g.path == "" {
			continue
		}
		ran = true
		rep, err := experiments.BenchOverhead(g.layer)
		if err != nil {
			return 1, err
		}
		var pts []ledger.BenchPoint
		for _, c := range rep.Cases {
			pts = append(pts, ledger.BenchPoint{Case: c.Name, Metric: "overhead_frac", Value: c.OverheadFrac})
		}
		if err := emitBench(lcli, g.path, g.layer, rep, pts); err != nil {
			return 1, err
		}
		for _, c := range rep.Cases {
			fmt.Fprintf(stdout, "%-8s %-24s epochs=%d  off %.3fs  on %.3fs (cpu)  overhead %.2f%% (ceiling %.0f%%)\n",
				g.layer, c.Name, c.Epochs, c.OffCPUS, c.OnCPUS, 100*c.OverheadFrac, 100*g.max)
			if c.OverheadFrac > g.max && gateErr == nil {
				gateErr = fmt.Errorf("%s overhead %.2f%% on %s exceeds the %.0f%% ceiling",
					g.layer, 100*c.OverheadFrac, c.Name, 100*g.max)
			}
		}
		fmt.Fprintf(stdout, "report written to %s (%d CPUs)\n", g.path, rep.HostCPUs)
	}
	if ran {
		if gateErr != nil {
			return 1, gateErr
		}
		return 0, nil
	}

	if f.outDir != "" {
		if err := os.MkdirAll(f.outDir, 0o755); err != nil {
			return 1, err
		}
	}

	plan, err := fault.ParseSpec(f.faultSpec)
	if err != nil {
		return 1, err
	}

	// Table and report runs go through the scenario engine: each
	// experiment's checked-in spec, with the CLI flags folded in as spec
	// overrides, so odrl-bench and odrl-run share one execution path and one
	// cache. Tables print to stdout, or to the report file as markdown after
	// its header.
	engine := &scenario.Engine{Stack: sess.Stack}
	if f.cacheDir != "" {
		cache, err := scenario.NewCache(f.cacheDir)
		if err != nil {
			return 1, err
		}
		engine.Cache = cache
	}
	specFor := func(id string) (scenario.Spec, error) {
		spec, err := scenario.Builtin(id)
		if err != nil {
			return scenario.Spec{}, err
		}
		spec.Quick = f.quick
		spec.Workers = f.workers
		spec.FaultPlan = plan
		if f.cores > 0 {
			spec.Cores = f.cores
		}
		if f.budget > 0 {
			spec.BudgetW = f.budget
		}
		if f.seed > 0 {
			spec.Seeds = []uint64{f.seed}
		}
		return spec, nil
	}

	out, render := stdout, func(t experiments.Table, w io.Writer) error {
		_, err := t.WriteTo(w)
		return err
	}
	var report *os.File
	if f.reportFile != "" {
		if report, err = os.Create(f.reportFile); err != nil {
			return 1, err
		}
		defer report.Close()
		head := experiments.Config{Cores: f.cores, BudgetW: f.budget, Seed: f.seed, Quick: f.quick}
		if err := experiments.WriteReportHead(report, head); err != nil {
			return 1, fmt.Errorf("report: %w", err)
		}
		out, render = report, experiments.Table.WriteMarkdown
	}

	// A failing claim verdict fails the invocation, but only after every
	// table is written, so the report and CSVs show what failed.
	var claimsErr error
	runOne := func(id string) error {
		start := time.Now()
		spec, err := specFor(id)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		tbl, info, err := engine.Run(spec)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if err := tbl.Failed(); err != nil {
			claimsErr = err
		}
		lcli.RecordScenario(spec.Experiment, info.Hash, scenario.EngineVersion, info.CacheHit)
		if info.CacheHit {
			fmt.Fprintf(stderr, "odrl-bench: %s: cache hit %s\n", id, info.Hash)
		}
		if err := render(tbl, out); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if f.outDir != "" {
			path := filepath.Join(f.outDir, strings.ToLower(id)+".csv")
			cf, err := os.Create(path)
			if err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
			werr := tbl.WriteCSV(cf)
			cerr := cf.Close()
			if werr != nil || cerr != nil {
				return fmt.Errorf("%s: write %s failed", id, path)
			}
		}
		fmt.Fprintf(stdout, "(%s finished in %.1fs)\n\n", id, time.Since(start).Seconds())
		return nil
	}

	ids := []string{f.experiment}
	if f.experiment == "all" {
		ids = ids[:0]
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	}
	for _, id := range ids {
		if err := runOne(id); err != nil {
			return 1, err
		}
	}
	if report != nil {
		if err := report.Close(); err != nil {
			return 1, fmt.Errorf("report: %w", err)
		}
		fmt.Fprintf(stdout, "report written to %s\n", f.reportFile)
	}
	if claimsErr != nil {
		return 1, claimsErr
	}
	return 0, nil
}
