// Command odrl runs one power-capped many-core simulation and prints the
// measured summary for one or more controllers.
//
// Usage:
//
//	odrl -controllers od-rl,maxbips,pid -cores 64 -budget 90 -measure 8
//
// Pass -controllers all for every registered controller. Add -csv to emit
// machine-readable output and -trace FILE to dump the power trace of the
// first controller.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/config"
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
		configFile  = fs.String("config", "", "run a config.Experiment JSON file instead of flags")
		writeConfig = fs.Bool("write-config", false, "print the default experiment JSON and exit")
		writeSpec   = fs.Bool("write-spec", false, "print the canonical scenario spec equivalent to this invocation (runnable with odrl-run) and exit")
		plotTrace   = fs.Bool("plot", false, "render each controller's power trace as an ASCII chart")
		faultSpec   = fs.String("fault-plan", "", "inject faults: an intensity in [0,1] for the canonical plan, or a plan JSON file path (see internal/fault)")
	)
	obsFlags := session.Register(fs, 1)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// -write-spec translates the flag invocation into the declarative
	// scenario contract and exits before any observability side effects.
	if *writeSpec {
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
		if err := spec.Validate(); err != nil {
			fmt.Fprintln(stderr, "odrl:", err)
			return 2
		}
		canon, err := spec.Canonical()
		if err != nil {
			fmt.Fprintln(stderr, "odrl:", err)
			return 2
		}
		stdout.Write(canon)
		return 0
	}
	if *writeConfig {
		if err := config.DefaultExperiment().Save(stdout); err != nil {
			fmt.Fprintln(stderr, "odrl:", err)
			return 1
		}
		return 0
	}

	if err := obsFlags.Validate(); err != nil {
		fmt.Fprintln(stderr, "odrl:", err)
		return 2
	}
	// Every run below (flag path and -config path alike) reports to the
	// session's stack: monitor -> flight recorder -> tracer, with phase
	// spans teed into the recorder's post-mortem ring.
	sess, err := obsFlags.Start("odrl", args, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "odrl:", err)
		return 1
	}
	runErr := runMain(stdout, stderr, sess, mainFlags{
		controllers: *controllers, cores: *cores, workload: *workloadF,
		budget: *budget, warmup: *warmup, measure: *measure, seed: *seed,
		noise: *noise, thermalOff: *thermalOff, csvOut: *csvOut,
		traceFile: *traceFile, configFile: *configFile, plotTrace: *plotTrace,
		faultSpec: *faultSpec,
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

// mainFlags carries the simulation flags into the run body.
type mainFlags struct {
	controllers, workload, traceFile, configFile, faultSpec string
	cores                                                   int
	budget, warmup, measure, noise                          float64
	seed                                                    uint64
	thermalOff, csvOut, plotTrace                           bool
}

func runMain(stdout, stderr io.Writer, sess *session.Session, f mainFlags) error {
	if f.configFile != "" {
		cf, err := os.Open(f.configFile)
		if err != nil {
			return err
		}
		exp, err := config.Load(cf)
		cf.Close()
		if err != nil {
			return err
		}
		results, err := sim.RunExperiment(exp, sess.Stack)
		if err != nil {
			return err
		}
		if err := sim.WriteSummaryTable(stdout, results); err != nil {
			return err
		}
		return sim.WritePhaseTable(stdout, results)
	}

	opts := sim.DefaultOptions()
	opts.Stack = sess.Stack
	opts.Cores = f.cores
	opts.Workload = f.workload
	opts.BudgetW = f.budget
	opts.WarmupS = f.warmup
	opts.MeasureS = f.measure
	opts.Seed = f.seed
	opts.SensorNoise = f.noise
	opts.ThermalOff = f.thermalOff
	plan, err := fault.ParseSpec(f.faultSpec)
	if err != nil {
		return err
	}
	opts.FaultPlan = plan
	if f.traceFile != "" || f.plotTrace {
		opts.TracePoints = 500
	}

	names := strings.Split(f.controllers, ",")
	if f.controllers == "all" {
		names = sim.ControllerNames()
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
	results, err := sim.RunAll(opts, names)
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
