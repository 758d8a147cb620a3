// Command odrl-verify re-measures the paper's four abstract claims and
// prints a PASS/FAIL verdict for each. It exits non-zero if any claim's
// shape fails to reproduce, making it suitable as a CI reproduction gate.
//
//	odrl-verify          # full fidelity, ~1 minute
//	odrl-verify -quick   # small/short smoke pass with relaxed thresholds
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
	"repro/internal/obs/session"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI behind a testable seam. Exit code 2 means the
// invocation was malformed, 1 means a claim failed or a run errored.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("odrl-verify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		quick = fs.Bool("quick", false, "small/short runs with relaxed thresholds")
		seed  = fs.Uint64("seed", 0, "override random seed")
	)
	obsFlags := session.Register(fs, 100)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if err := obsFlags.Validate(); err != nil {
		fmt.Fprintln(stderr, "odrl-verify:", err)
		return 2
	}
	sess, err := obsFlags.Start("odrl-verify", args, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "odrl-verify:", err)
		return 1
	}

	cfg := experiments.Default()
	cfg.Quick = *quick
	cfg.Stack = sess.Stack
	if *seed > 0 {
		cfg.Seed = *seed
	}
	runErr := verify(stdout, cfg)
	if err := sess.Close(stderr); runErr == nil {
		runErr = err
	}
	// A failed claim is a failed run record: the flight recorder dumps its
	// post-mortem bundle so the regression is diagnosable after the fact.
	sess.Ledger.Finish(runErr)
	if runErr != nil {
		fmt.Fprintln(stderr, "odrl-verify:", runErr)
		return 1
	}
	return 0
}

// verify re-measures the claims and prints one verdict each. It fails when
// a run errors or any claim does not reproduce.
func verify(stdout io.Writer, cfg experiments.Config) error {
	g, err := experiments.RunGrid(cfg)
	if err != nil {
		return err
	}
	results, err := experiments.Claims(g)
	if err != nil {
		return err
	}
	failed := 0
	for _, r := range results {
		verdict := "PASS"
		if !r.Pass {
			verdict = "FAIL"
			failed++
		}
		fmt.Fprintf(stdout, "[%s] %s — %s\n      measured: %s\n", verdict, r.ID, r.Claim, r.Measured)
	}
	if failed > 0 {
		fmt.Fprintf(stdout, "\n%d of %d claims failed to reproduce\n", failed, len(results))
		return fmt.Errorf("%d of %d claims failed to reproduce", failed, len(results))
	}
	fmt.Fprintf(stdout, "\nall %d claims reproduced\n", len(results))
	return nil
}
