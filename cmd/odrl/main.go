// Command odrl runs one power-capped many-core simulation and prints the
// measured summary for one or more controllers.
//
// Usage:
//
//	odrl -controllers od-rl,maxbips,pid -cores 64 -budget 90 -measure 8
//
// Pass -controllers all for every registered controller. Add -csv to emit
// machine-readable output and -trace FILE to dump the power trace of the
// first controller. -write-spec prints the scenario spec equivalent to the
// flags, which odrl-run runs, caches and sweeps.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/session"
	"repro/internal/plot"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI behind a testable seam. Exit code 2 means the
// invocation was malformed (nothing was simulated), 1 means a run failed.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("odrl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		controllers = fs.String("controllers", "od-rl,maxbips,steepest-drop,pid,greedy,static", "comma-separated controller names, or 'all'")
		cores       = fs.Int("cores", 64, "number of cores")
		workloadF   = fs.String("workload", "mix", "workload preset name or 'mix'")
		budget      = fs.Float64("budget", 90, "chip power budget (W)")
		warmup      = fs.Float64("warmup", 2, "warmup seconds (learning continues, metrics off)")
		measure     = fs.Float64("measure", 8, "measurement seconds")
		seed        = fs.Uint64("seed", 1, "random seed")
		noise       = fs.Float64("noise", 0.02, "relative sensor noise")
		thermalOff  = fs.Bool("thermal-off", false, "disable the leakage-temperature loop")
		csvOut      = fs.Bool("csv", false, "emit CSV instead of an aligned table")
		traceFile   = fs.String("trace", "", "write the first controller's power trace CSV to this file")
		writeSpec   = fs.Bool("write-spec", false, "print the canonical scenario spec equivalent to this invocation (runnable with odrl-run) and exit")
		plotTrace   = fs.Bool("plot", false, "render each controller's power trace as an ASCII chart")
		faultSpec   = fs.String("fault-plan", "", "inject faults: an intensity in [0,1] for the canonical plan, or a plan JSON file path (see internal/fault)")
	)
	obsFlags := session.Register(fs, 1)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// The scenario spec equivalent to the flags: -write-spec prints it, and
	// a run records its hash so the ledger can join the run to the spec.
	plan, err := fault.ParseSpec(*faultSpec)
	if err != nil {
		fmt.Fprintln(stderr, "odrl:", err)
		return 2
	}
	names := strings.Split(*controllers, ",")
	if *controllers == "all" {
		names = sim.ControllerNames()
	}
	spec := scenario.Spec{
		Workload:    *workloadF,
		Controllers: names,
		Cores:       *cores,
		BudgetW:     *budget,
		WarmupS:     *warmup,
		MeasureS:    *measure,
		Seeds:       []uint64{*seed},
		SensorNoise: noise,
		ThermalOff:  *thermalOff,
		FaultPlan:   plan,
	}

	// An invalid spec is a malformed invocation: refuse it before the
	// session opens, so it leaves no ledger record. A spec reads zero as
	// "the default", so a zero flag would run another scenario (the four
	// flags are numeric, so their values always parse).
	for _, name := range []string{"cores", "budget", "warmup", "measure"} {
		if v, _ := strconv.ParseFloat(fs.Lookup(name).Value.String(), 64); v <= 0 {
			fmt.Fprintf(stderr, "odrl: -%s %g: must be positive\n", name, v)
			return 2
		}
	}
	if err := spec.Validate(); err != nil {
		fmt.Fprintln(stderr, "odrl:", err)
		return 2
	}

	// -write-spec translates the flag invocation into the declarative
	// scenario contract and exits before any observability side effects.
	if *writeSpec {
		canon, err := spec.Canonical()
		if err != nil {
			fmt.Fprintln(stderr, "odrl:", err)
			return 2
		}
		stdout.Write(canon)
		return 0
	}

	if err := obsFlags.Validate(); err != nil {
		fmt.Fprintln(stderr, "odrl:", err)
		return 2
	}
	// Every run reports to the session's stack: monitor -> flight recorder
	// -> tracer, with phase spans teed into the recorder's post-mortem ring.
	sess, err := obsFlags.Start("odrl", args, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "odrl:", err)
		return 1
	}
	if hash, err := spec.Hash(); err == nil {
		sess.Ledger.RecordScenario("", hash, scenario.EngineVersion, false)
	}
	runErr := runMain(stdout, stderr, sess, spec, outFlags{
		csvOut: *csvOut, traceFile: *traceFile, plotTrace: *plotTrace,
	})
	if err := sess.Close(stderr); runErr == nil {
		runErr = err
	}
	sess.Ledger.Finish(runErr)
	if runErr != nil {
		fmt.Fprintln(stderr, "odrl:", runErr)
		return 1
	}
	return 0
}

// outFlags carries the output flags into the run body.
type outFlags struct {
	traceFile         string
	csvOut, plotTrace bool
}

func runMain(stdout, stderr io.Writer, sess *session.Session, spec scenario.Spec, f outFlags) error {
	// Read the spec as odrl-run reads what -write-spec prints.
	opts, err := spec.Options(spec.Seeds[0], spec.Workload, sess.Stack)
	if err != nil {
		return err
	}
	if f.traceFile != "" || f.plotTrace {
		opts.TracePoints = 500
	}

	// logRunConfig makes a run reproducible from stderr alone.
	w, h, _ := sim.GridFor(opts.Cores)
	warmupE, measureE := opts.Epochs()
	obs.LogEvent(stderr, "run-config",
		"seed", opts.Seed,
		"cores", opts.Cores,
		"grid_w", w,
		"grid_h", h,
		"workload", opts.Workload,
		"budget_w", opts.BudgetW,
		"epoch_s", opts.EpochS,
		"warmup_epochs", warmupE,
		"measure_epochs", measureE,
	)
	results, err := sim.RunAll(opts, spec.Controllers)
	if err != nil {
		return err
	}

	if f.csvOut {
		if err := sim.WriteCSV(stdout, results); err != nil {
			return err
		}
	} else {
		if err := sim.WriteSummaryTable(stdout, results); err != nil {
			return err
		}
		if err := sim.WritePhaseTable(stdout, results); err != nil {
			return err
		}
		if err := sess.WriteDecideQuantiles(stdout); err != nil {
			return err
		}
	}

	if f.plotTrace {
		for _, res := range results {
			if len(res.Trace) == 0 {
				continue
			}
			xs := make([]float64, len(res.Trace))
			ys := make([]float64, len(res.Trace))
			bs := make([]float64, len(res.Trace))
			for i, p := range res.Trace {
				xs[i] = p.TimeS
				ys[i] = p.PowerW
				bs[i] = p.BudgetW
			}
			fmt.Fprintln(stdout)
			err := plot.Render(stdout,
				fmt.Sprintf("%s: chip power (W) vs time (s)", res.Summary.Controller),
				72, 14,
				plot.Series{Label: "power", X: xs, Y: ys},
				plot.Series{Label: "budget", X: xs, Y: bs},
			)
			if err != nil {
				return err
			}
		}
	}

	if f.traceFile != "" && len(results) > 0 {
		tf, err := os.Create(f.traceFile)
		if err != nil {
			return err
		}
		defer tf.Close()
		if err := sim.WriteTrace(tf, results[0].Summary.Controller, results[0].Trace); err != nil {
			return err
		}
	}
	return nil
}
