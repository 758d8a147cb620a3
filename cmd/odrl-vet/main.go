// Command odrl-vet runs the repo's custom invariant analyzers — the
// determinism, RNG, wall-clock and hot-path-allocation contracts that plain
// go vet cannot see — over the module and exits non-zero when any
// unsuppressed diagnostic remains.
//
// Usage:
//
//	odrl-vet ./...
//	odrl-vet -analyzers detrange,wallclock ./internal/...
//	odrl-vet -json ./... | jq .
//	odrl-vet -allows ./...            # audit the //odrl:allow ledger
//	odrl-vet -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/obs/ledger"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI behind a testable seam: parse+validate flags, then
// load, analyze, report. Exit code 2 means the invocation was malformed
// (unknown analyzer, bad flags), 1 means unsuppressed diagnostics (or a
// load failure), 0 means the tree is clean.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("odrl-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		sel       = fs.String("analyzers", "", "comma-separated analyzer subset (default: all)")
		asJSON    = fs.Bool("json", false, "emit diagnostics and allows as JSON")
		allows    = fs.Bool("allows", false, "list //odrl:allow suppressions (the audit ledger) instead of diagnostics")
		list      = fs.Bool("list", false, "list available analyzers and exit")
		dir       = fs.String("dir", ".", "module directory to analyze (go list runs here)")
		maxDiags  = fs.Int("max", 0, "print at most this many diagnostics (0 = no limit; exit code still reflects the full count)")
		ledgerDir = fs.String("ledger", "", "run-ledger directory (default $ODRL_LEDGER or "+ledger.DefaultDir+"): append a queryable run record")
		noLedger  = fs.Bool("no-ledger", false, "disable the run ledger")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := analysis.All()
	if *sel != "" {
		names := strings.Split(*sel, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
		}
		var unknown []string
		analyzers, unknown = analysis.ByName(names)
		if len(unknown) > 0 {
			fmt.Fprintf(stderr, "odrl-vet: unknown analyzer(s): %s (run odrl-vet -list)\n", strings.Join(unknown, ", "))
			return 2
		}
	}
	if *maxDiags < 0 {
		fmt.Fprintln(stderr, "odrl-vet: -max must be >= 0")
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	// A vet pass is a run worth remembering: the record's status tells CI
	// archaeology whether this tree was clean at this commit.
	lcli := ledger.StartCLI("odrl-vet", args, ledger.ResolveDir(*ledgerDir), *noLedger, stderr)

	loader := analysis.NewLoader(*dir)
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		lcli.Finish(fmt.Errorf("load: %v", err))
		fmt.Fprintf(stderr, "odrl-vet: load: %v\n", err)
		return 1
	}
	result, err := analysis.Vet(pkgs, analyzers)
	if err != nil {
		lcli.Finish(err)
		fmt.Fprintf(stderr, "odrl-vet: %v\n", err)
		return 1
	}

	var code int
	if *allows {
		code = reportAllows(result, *asJSON, stdout, stderr)
	} else {
		code = reportDiags(result, *asJSON, *maxDiags, stdout, stderr)
	}
	if code != 0 {
		lcli.Finish(fmt.Errorf("%d unsuppressed diagnostic(s)", len(result.Diagnostics)))
	} else {
		lcli.Finish(nil)
	}
	return code
}

func reportDiags(result analysis.Result, asJSON bool, maxDiags int, stdout, stderr io.Writer) int {
	if asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		diags := result.Diagnostics
		if diags == nil {
			diags = []analysis.Diagnostic{} // [] not null: consumers iterate
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(stderr, "odrl-vet: encode: %v\n", err)
			return 1
		}
	} else {
		shown := result.Diagnostics
		if maxDiags > 0 && len(shown) > maxDiags {
			shown = shown[:maxDiags]
		}
		for _, d := range shown {
			fmt.Fprintln(stdout, d.String())
		}
		if n := len(result.Diagnostics) - len(shown); n > 0 {
			fmt.Fprintf(stdout, "... and %d more (re-run without -max)\n", n)
		}
	}
	if len(result.Diagnostics) > 0 {
		fmt.Fprintf(stderr, "odrl-vet: %d unsuppressed diagnostic(s)\n", len(result.Diagnostics))
		return 1
	}
	return 0
}

func reportAllows(result analysis.Result, asJSON bool, stdout, stderr io.Writer) int {
	if asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		allows := result.Allows
		if allows == nil {
			allows = []analysis.Allow{}
		}
		if err := enc.Encode(allows); err != nil {
			fmt.Fprintf(stderr, "odrl-vet: encode: %v\n", err)
			return 1
		}
		return 0
	}
	for _, a := range result.Allows {
		fmt.Fprintf(stdout, "%s:%d: [%s] %s\n", a.File, a.Line, a.Analyzer, a.Reason)
	}
	fmt.Fprintf(stdout, "%d suppression(s)\n", len(result.Allows))
	return 0
}
