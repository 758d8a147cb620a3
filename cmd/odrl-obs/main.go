// Command odrl-obs is the cross-run regression observatory: it queries the
// append-only run ledger the other commands write (see internal/obs/ledger)
// to list runs, show one run with its learning reports, diff two runs'
// provenance, metric summaries and learned policies, trend a metric over
// time, and gate CI against a pinned baseline.
//
// Usage:
//
//	odrl-obs -list                         # recent runs, newest last
//	odrl-obs -list -tool odrl-run -experiment F4
//	odrl-obs -show 20260808T0912           # one record, by ID prefix
//	odrl-obs -diff RUN_A RUN_B             # provenance and metric deltas
//	odrl-obs -trend bips -spec cafe01      # one metric across matching runs
//	odrl-obs -pin latest                   # pin the newest ok run as baseline
//	odrl-obs -check                        # exit 1 if latest regressed vs pin
//
// For records made with -learn (and -snapshot-every), -show adds a report
// per learning run and -diff a learning section; every artifact is checked
// against the SHA-256 its record pins before it is read.
//
// Deterministic metrics (bips, over_j, …) are judged by default; wall-clock
// metrics (decide_*) only with -wallclock, so identical-spec re-runs always
// diff clean. odrl-obs itself writes no run records: watching the watcher
// would add a record per query.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/obs/ledger"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI behind a testable seam. Exit code 2 means the
// invocation was malformed, 1 means a regression (or a broken ledger), 0
// means clean.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("odrl-obs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: odrl-obs -list | -show ID | -diff A B | -trend METRIC | -pin ID|latest | -check")
		fs.PrintDefaults()
	}
	var (
		list      = fs.Bool("list", false, "list matching run records, oldest first")
		show      = fs.String("show", "", "print one record (by ID or unique prefix) as indented JSON, then a report per learning run it holds")
		diffMode  = fs.Bool("diff", false, "diff two records' provenance, run summaries and learning runs (two ID arguments)")
		trend     = fs.String("trend", "", "print one metric's value across matching records, oldest first")
		pin       = fs.String("pin", "", "pin a record ('latest' or an ID) as the regression baseline")
		check     = fs.Bool("check", false, "compare the latest matching run against the pinned baseline; exit 1 on regression")
		ledgerDir = fs.String("ledger", "", "ledger directory (default $ODRL_LEDGER or "+ledger.DefaultDir+")")
		tool      = fs.String("tool", "", "filter: records written by this tool")
		spec      = fs.String("spec", "", "filter: records whose scenario spec hash starts with this prefix")
		experi    = fs.String("experiment", "", "filter: records that ran this experiment ID (T1, F4, …)")
		status    = fs.String("status", "", "filter: record status (ok | failed)")
		baseline  = fs.String("baseline", "", "override the pinned baseline for -check (record ID)")
		threshold = fs.Float64("threshold", 0.05, "relative change beyond which a judged metric regresses")
		wallClock = fs.Bool("wallclock", false, "also judge host-dependent metrics ("+ledger.JudgedMetricNames()+" minus the deterministic set)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	modes := 0
	for _, on := range []bool{*list, *show != "", *diffMode, *trend != "", *pin != "", *check} {
		if on {
			modes++
		}
	}
	if modes == 0 {
		fs.Usage()
		return 2
	}
	if modes > 1 {
		fmt.Fprintln(stderr, "odrl-obs: -list, -show, -diff, -trend, -pin and -check are mutually exclusive")
		return 2
	}
	if *diffMode && fs.NArg() != 2 {
		fmt.Fprintln(stderr, "odrl-obs: -diff takes exactly two record IDs")
		return 2
	}
	if !*diffMode && fs.NArg() != 0 {
		fmt.Fprintf(stderr, "odrl-obs: unexpected arguments: %s\n", strings.Join(fs.Args(), " "))
		return 2
	}
	if *threshold < 0 {
		fmt.Fprintln(stderr, "odrl-obs: -threshold must be >= 0")
		return 2
	}

	dir := ledger.ResolveDir(*ledgerDir)
	recs, errs := ledger.Read(dir)
	// Corrupt lines are loud but not fatal to read-only queries: the whole
	// point of the content hash is to notice them. Only -check treats them
	// as a failure — CI must not certify a tampered history as clean.
	for _, err := range errs {
		fmt.Fprintln(stderr, "odrl-obs: ledger:", err)
	}
	// load finds one record and reads its learning runs, verified.
	load := func(id string) (ledger.Record, []*learnRun, error) {
		r, err := ledger.ByID(recs, id)
		if err != nil {
			return r, nil, err
		}
		runs, err := loadLearnRuns(dir, r)
		return r, runs, err
	}
	filter := ledger.Filter{Tool: *tool, SpecHash: *spec, Experiment: *experi, Status: *status}
	opts := ledger.CompareOptions{Threshold: *threshold, WallClock: *wallClock}

	switch {
	case *list:
		matched := ledger.Select(recs, filter)
		if len(matched) == 0 {
			fmt.Fprintf(stdout, "no matching records in %s (%d total)\n", dir, len(recs))
			return 0
		}
		fmt.Fprintf(stdout, "%-28s %-12s %-8s %8s %6s %7s %7s  %s\n",
			"ID", "TOOL", "STATUS", "WALL_S", "RUNS", "ALERTS", "FAULTS", "SCENARIOS")
		for _, r := range matched {
			fmt.Fprintf(stdout, "%-28s %-12s %-8s %8.2f %6d %7d %7d  %s\n",
				r.ID, r.Tool, r.Status, r.WallS, len(r.Runs), r.Alerts, r.Faults, scenarioSummary(r))
		}
		return 0

	case *show != "":
		r, runs, err := load(*show)
		if err != nil {
			fmt.Fprintln(stderr, "odrl-obs:", err)
			return 1
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r); err != nil {
			fmt.Fprintln(stderr, "odrl-obs:", err)
			return 1
		}
		for _, lr := range runs {
			fmt.Fprintln(stdout)
			writeLearnReport(stdout, r.ID, lr)
		}
		return 0

	case *diffMode:
		base, baseRuns, err := load(fs.Arg(0))
		if err != nil {
			fmt.Fprintln(stderr, "odrl-obs:", err)
			return 1
		}
		cand, candRuns, err := load(fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "odrl-obs:", err)
			return 1
		}
		code := reportCompare(stdout, base, cand, opts)
		if len(baseRuns) > 0 && len(candRuns) > 0 {
			writeLearnDiffs(stdout, base, cand, baseRuns, candRuns)
		}
		return code

	case *trend != "":
		matched := ledger.Select(recs, filter)
		n := 0
		for _, r := range matched {
			for _, s := range r.Runs {
				v, ok := s.Metrics[*trend]
				if !ok {
					continue
				}
				fmt.Fprintf(stdout, "%-28s %-28s %12.6g\n", r.ID, s.Key(), v)
				n++
			}
		}
		if n == 0 {
			fmt.Fprintf(stdout, "no samples of %q in %d matching record(s)\n", *trend, len(matched))
		}
		return 0

	case *pin != "":
		var r ledger.Record
		if *pin == "latest" {
			f := filter
			if f.Status == "" {
				f.Status = ledger.StatusOK // never pin a failed run by default
			}
			var ok bool
			r, ok = ledger.Latest(recs, f)
			if !ok {
				fmt.Fprintln(stderr, "odrl-obs: no matching ok record to pin")
				return 1
			}
		} else {
			var err error
			r, err = ledger.ByID(recs, *pin)
			if err != nil {
				fmt.Fprintln(stderr, "odrl-obs:", err)
				return 1
			}
		}
		b := ledger.Baseline{ID: r.ID, PinnedAt: time.Now().UTC().Format(time.RFC3339)} //odrl:allow wallclock baseline pin timestamp is operator metadata, not simulation input
		if err := ledger.WriteBaseline(dir, b); err != nil {
			fmt.Fprintln(stderr, "odrl-obs:", err)
			return 1
		}
		fmt.Fprintf(stdout, "pinned baseline %s (%s, %s)\n", r.ID, r.Tool, r.Status)
		return 0

	default: // *check
		if len(errs) > 0 {
			fmt.Fprintf(stderr, "odrl-obs: check: %d corrupt ledger line(s)\n", len(errs))
			return 1
		}
		baseID := *baseline
		if baseID == "" {
			b, ok, err := ledger.ReadBaseline(dir)
			if err != nil {
				fmt.Fprintln(stderr, "odrl-obs:", err)
				return 1
			}
			if !ok {
				fmt.Fprintln(stderr, "odrl-obs: no baseline pinned (run odrl-obs -pin latest, or pass -baseline ID)")
				return 1
			}
			baseID = b.ID
		}
		base, err := ledger.ByID(recs, baseID)
		if err != nil {
			fmt.Fprintln(stderr, "odrl-obs:", err)
			return 1
		}
		f := filter
		if f.Status == "" {
			f.Status = ledger.StatusOK
		}
		cand, ok := ledger.Latest(recs, f)
		if !ok {
			fmt.Fprintln(stderr, "odrl-obs: no matching candidate record")
			return 1
		}
		fmt.Fprintf(stdout, "baseline  %s (%s)\ncandidate %s (%s)\n", base.ID, base.Tool, cand.ID, cand.Tool)
		return reportCompare(stdout, base, cand, opts)
	}
}

// scenarioSummary renders a record's scenario refs for the list view.
func scenarioSummary(r ledger.Record) string {
	var parts []string
	for _, s := range r.Scenarios {
		h := s.SpecHash
		if len(h) > 10 {
			h = h[:10]
		}
		p := h
		if s.Experiment != "" {
			p = s.Experiment + ":" + h
		}
		if s.CacheHit {
			p += " (cached)"
		}
		parts = append(parts, p)
	}
	return strings.Join(parts, " ")
}

// reportCompare prints the provenance verdict, every delta and the
// unmatched-run notes, and returns the exit code: 1 when any judged metric
// regressed.
func reportCompare(stdout io.Writer, base, cand ledger.Record, opts ledger.CompareOptions) int {
	writeProvenance(stdout, base, cand)
	deltas, notes := ledger.Compare(base, cand, opts)
	for _, d := range deltas {
		fmt.Fprintln(stdout, d.String())
	}
	for _, n := range notes {
		fmt.Fprintln(stdout, "note:", n)
	}
	regs := ledger.Regressions(deltas)
	if len(regs) > 0 {
		fmt.Fprintf(stdout, "%d regression(s) beyond %.1f%% (judged: %s)\n",
			len(regs), opts.Threshold*100, ledger.JudgedMetricNames())
		return 1
	}
	fmt.Fprintf(stdout, "0 regressions across %d compared metric(s)\n", len(deltas))
	return 0
}

// writeProvenance prints "provenance: same", or the fields that differ and
// one A -> B line for each.
func writeProvenance(w io.Writer, base, cand ledger.Record) {
	diffs := ledger.Provenance(base, cand)
	if len(diffs) == 0 {
		fmt.Fprintln(w, "provenance: same")
		return
	}
	names := make([]string, len(diffs))
	for i, d := range diffs {
		names[i] = d.Field
	}
	fmt.Fprintf(w, "provenance: differs in %s\n", strings.Join(names, ", "))
	for _, d := range diffs {
		fmt.Fprintf(w, "  %-15s %q -> %q\n", d.Field+":", d.A, d.B)
	}
}
