// Command odrl-run executes a declarative scenario spec (see
// internal/scenario): the JSON contract shared by the checked-in F-series
// experiments, user-submitted novel scenarios, and the planned fleet
// service. Results are the same tables the canned evaluation emits, and a
// content-addressed cache makes re-running an unchanged spec free.
//
// Usage:
//
//	odrl-run spec.json                 # run a spec file (or '-' for stdin)
//	odrl-run -builtin F1               # run a checked-in experiment spec
//	odrl-run -builtin CLAIMS -quick    # judge the paper's claims C1–C4
//	odrl-run -dry-run spec.json        # print canonical spec + hash, no runs
//	odrl-run -cache .odrl-cache spec.json
//	odrl-run -list                     # list checked-in specs
//
// A parameter sweep is a spec with a "sweep" axis (see
// examples/specs/budget-sweep.json). The shared observability flags
// (-monitor, -learn, -trace-events, -debug-addr, -ledger, …)
// attach to every run the engine executes. A table that holds a failing
// claim verdict is written in full, then the command exits 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/obs/session"
	"repro/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI behind a testable seam: parse+validate flags and
// spec, then dispatch. Exit code 2 means the invocation or spec was
// malformed, a spec with a run that cannot start included (nothing was
// simulated), 1 means a run itself or a claim failed.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("odrl-run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: odrl-run [flags] <spec.json | ->")
		fs.PrintDefaults()
	}
	var (
		builtin  = fs.String("builtin", "", "run the checked-in spec for an experiment ID (CLAIMS, T1, T2, F1..F19) instead of a file")
		list     = fs.Bool("list", false, "list the checked-in experiment specs and exit")
		dryRun   = fs.Bool("dry-run", false, "validate, print the canonical spec and its content hash, and exit without running")
		cacheDir = fs.String("cache", "", "content-addressed result cache directory: identical specs re-use stored tables ('' = no cache)")
		csvOut   = fs.Bool("csv", false, "emit CSV instead of an aligned table")
		outFile  = fs.String("o", "", "write the table to this file instead of stdout")
		quick    = fs.Bool("quick", false, "shrink runs for a fast smoke pass (overrides the spec's quick field)")
		workers  = fs.Int("j", -1, "override the spec's worker count (0 = one per CPU, 1 = sequential); results and cache keys are identical for any value")
	)
	obsFlags := session.Register(fs, 10)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := obsFlags.Validate(); err != nil {
		fmt.Fprintln(stderr, "odrl-run:", err)
		return 2
	}
	// -j's default (-1) keeps the spec's worker count.
	workersSet := false
	fs.Visit(func(f *flag.Flag) { workersSet = workersSet || f.Name == "j" })

	// Exactly one spec source; silently preferring one would make "which
	// scenario did I just run?" unanswerable.
	sources := 0
	for _, on := range []bool{*builtin != "", *list, fs.NArg() == 1} {
		if on {
			sources++
		}
	}
	if fs.NArg() > 1 {
		fmt.Fprintf(stderr, "odrl-run: expected one spec file, got %d arguments\n", fs.NArg())
		return 2
	}
	if sources == 0 {
		fs.Usage()
		return 2
	}
	if sources > 1 {
		fmt.Fprintln(stderr, "odrl-run: -builtin, -list and a spec file are mutually exclusive")
		return 2
	}
	if *dryRun && (*csvOut || *outFile != "") {
		fmt.Fprintln(stderr, "odrl-run: -dry-run prints the canonical spec; it conflicts with -csv and -o")
		return 2
	}
	if *list && (*dryRun || *csvOut || *outFile != "" || *cacheDir != "") {
		fmt.Fprintln(stderr, "odrl-run: -list takes no other flags")
		return 2
	}

	if *list {
		for _, id := range scenario.BuiltinIDs() {
			spec, err := scenario.Builtin(id)
			if err != nil {
				fmt.Fprintln(stderr, "odrl-run:", err)
				return 1
			}
			fmt.Fprintf(stdout, "%-4s %s\n", id, spec.Name)
		}
		return 0
	}

	var (
		spec scenario.Spec
		err  error
	)
	switch {
	case *builtin != "":
		spec, err = scenario.Builtin(*builtin)
	case fs.Arg(0) == "-":
		spec, err = scenario.Load(os.Stdin)
	default:
		f, ferr := os.Open(fs.Arg(0))
		if ferr != nil {
			fmt.Fprintln(stderr, "odrl-run:", ferr)
			return 2
		}
		spec, err = scenario.Load(f)
		f.Close()
	}
	if err != nil {
		fmt.Fprintln(stderr, "odrl-run:", err)
		return 2
	}
	if *quick {
		spec.Quick = true
	}
	if workersSet {
		spec.Workers = *workers
	}
	// Re-validate after overrides, so nothing past this point runs an
	// invalid spec: -quick changes the windows and core count every run
	// starts with, and -j its worker count.
	if err := spec.Validate(); err != nil {
		fmt.Fprintln(stderr, "odrl-run:", err)
		return 2
	}

	hash, err := spec.Hash()
	if err != nil {
		fmt.Fprintln(stderr, "odrl-run:", err)
		return 2
	}
	if *dryRun {
		canon, err := spec.Canonical()
		if err != nil {
			fmt.Fprintln(stderr, "odrl-run:", err)
			return 2
		}
		stdout.Write(canon)
		fmt.Fprintf(stdout, "hash: %s\n", hash)
		return 0
	}

	// The observability session starts only once a real execution begins
	// (usage errors, -list and -dry-run leave no run record) and its ledger
	// closes on every path through Finish, so failed runs are recorded as
	// failed.
	sess, err := obsFlags.Start("odrl-run", args, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "odrl-run:", err)
		return 1
	}
	runErr := func() error {
		engine := &scenario.Engine{Stack: sess.Stack}
		if *cacheDir != "" {
			cache, err := scenario.NewCache(*cacheDir)
			if err != nil {
				return err
			}
			engine.Cache = cache
		}
		tbl, info, err := engine.Run(spec)
		if err != nil {
			return err
		}
		sess.Ledger.RecordScenario(spec.Experiment, info.Hash, scenario.EngineVersion, info.CacheHit)
		if info.CacheHit {
			fmt.Fprintf(stderr, "odrl-run: cache hit %s\n", info.Hash)
		}

		w := io.Writer(stdout)
		if *outFile != "" {
			f, err := os.Create(*outFile)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		if *csvOut {
			err = tbl.WriteCSV(w)
		} else {
			_, err = tbl.WriteTo(w)
		}
		if err == nil {
			err = tbl.Failed()
		}
		return err
	}()
	if err := sess.Close(stderr); runErr == nil {
		runErr = err
	}
	sess.Ledger.Finish(runErr)
	if runErr != nil {
		fmt.Fprintln(stderr, "odrl-run:", runErr)
		return 1
	}
	return 0
}
