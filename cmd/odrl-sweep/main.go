// Command odrl-sweep runs one controller across a parameter sweep (budget,
// core count, epoch length or seed) and prints one CSV row per point —
// the raw material for sensitivity plots beyond the canned experiments.
//
// Usage:
//
//	odrl-sweep -controller od-rl -param budget -values 40,55,70,90
//	odrl-sweep -controller maxbips -param cores -values 16,64,256
//	odrl-sweep -controller od-rl -param seed -values 1,2,3,4,5
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/obs/session"
	"repro/internal/par"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI behind a testable seam. Exit code 2 means the
// invocation was malformed, 1 means a sweep point failed.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("odrl-sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		controller = fs.String("controller", "od-rl", "controller name")
		param      = fs.String("param", "budget", "swept parameter: budget | cores | epoch | seed")
		values     = fs.String("values", "40,55,70,90", "comma-separated sweep values")
		cores      = fs.Int("cores", 64, "core count (fixed unless swept)")
		budget     = fs.Float64("budget", 55, "budget in W (fixed unless swept)")
		workloadF  = fs.String("workload", "mix", "workload preset or 'mix'")
		warmup     = fs.Float64("warmup", 2, "warmup seconds")
		measure    = fs.Float64("measure", 4, "measurement seconds")
		seed       = fs.Uint64("seed", 1, "seed (fixed unless swept)")
		writeSpec  = fs.Bool("write-spec", false, "print the canonical scenario spec equivalent to this invocation (runnable with odrl-run) and exit")
		workers    = fs.Int("j", 0, "worker goroutines fanning sweep points out and sharding large chips (0 = one per CPU, 1 = sequential); rows are identical for any value")
	)
	obsFlags := session.Register(fs, 10)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Parse and validate every sweep value up front so a bad -values entry
	// or unknown -param exits immediately, before any trace files or
	// expensive simulation runs (the fan-out below has no fail-fast).
	points := strings.Split(*values, ",")
	parsed := make([]float64, len(points))
	for i, raw := range points {
		points[i] = strings.TrimSpace(raw)
		v, err := strconv.ParseFloat(points[i], 64)
		if err != nil {
			fmt.Fprintf(stderr, "odrl-sweep: bad value %q: %v\n", points[i], err)
			return 2
		}
		parsed[i] = v
	}
	switch *param {
	case "budget", "cores", "epoch", "seed":
	default:
		fmt.Fprintf(stderr, "odrl-sweep: unknown param %q\n", *param)
		return 2
	}

	// -write-spec translates the flag invocation into the declarative
	// scenario contract and exits before any observability side effects.
	if *writeSpec {
		spec := scenario.Spec{
			Workload:    *workloadF,
			Controllers: []string{*controller},
			Cores:       *cores,
			BudgetW:     *budget,
			WarmupS:     *warmup,
			MeasureS:    *measure,
			Sweep:       &scenario.Sweep{Param: *param, Values: parsed},
		}
		// A seed sweep owns the seed axis; otherwise the fixed seed pins it.
		if *param != "seed" {
			spec.Seeds = []uint64{*seed}
		}
		if err := spec.Validate(); err != nil {
			fmt.Fprintln(stderr, "odrl-sweep:", err)
			return 2
		}
		canon, err := spec.Canonical()
		if err != nil {
			fmt.Fprintln(stderr, "odrl-sweep:", err)
			return 2
		}
		stdout.Write(canon)
		return 0
	}

	if err := obsFlags.Validate(); err != nil {
		fmt.Fprintln(stderr, "odrl-sweep:", err)
		return 2
	}
	sess, err := obsFlags.Start("odrl-sweep", args, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "odrl-sweep:", err)
		return 1
	}

	// Sweep points are independent runs: fan them out across -j workers,
	// then print rows in sweep order from index-addressed results so the
	// CSV is identical for any worker count.
	rows, err := par.MapErr(*workers, len(points), func(i int) (string, error) {
		raw, v := points[i], parsed[i]

		opts := sim.DefaultOptions()
		opts.Cores = *cores
		opts.Workload = *workloadF
		opts.BudgetW = *budget
		opts.WarmupS = *warmup
		opts.MeasureS = *measure
		opts.Seed = *seed
		opts.Workers = *workers
		opts.Stack = sess.Stack
		switch *param {
		case "budget":
			opts.BudgetW = v
		case "cores":
			opts.Cores = int(v)
		case "epoch":
			opts.EpochS = v
		case "seed":
			opts.Seed = uint64(v)
		}

		// EnvFor derives the decision cadence from the point's epoch length,
		// exactly as odrl-run does for the spec -write-spec prints.
		env, err := sim.EnvFor(opts)
		if err != nil {
			return "", err
		}
		c, err := sim.NewController(*controller, env)
		if err != nil {
			return "", err
		}
		res, err := sim.Run(opts, c)
		if err != nil {
			return "", err
		}
		s := res.Summary
		return fmt.Sprintf("%s,%s,%s,%g,%g,%g,%g,%g,%g,%g,%g,%g",
			*param, raw, s.Controller, s.BIPS(), s.MeanW, s.PeakW,
			s.OverJ, s.OverTimeFrac(), s.EnergyEff(), s.CtrlTimeS,
			s.CtrlLocalTimeS, s.CtrlGlobalTimeS), nil
	})
	if cerr := sess.Close(stderr); err == nil {
		err = cerr
	}
	sess.Ledger.Finish(err)
	if err != nil {
		fmt.Fprintln(stderr, "odrl-sweep:", err)
		return 1
	}
	fmt.Fprintln(stdout, "param,value,controller,bips,mean_w,peak_w,over_j,over_time_frac,bips_per_w,ctrl_s,ctrl_local_s,ctrl_global_s")
	for _, row := range rows {
		fmt.Fprintln(stdout, row)
	}
	return 0
}
