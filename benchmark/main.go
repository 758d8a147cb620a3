// Command benchmark is the repository's benchmark: it times the simulator
// on four closed-loop workloads end to end (sim.Run and scenario.Engine.Run,
// as users run them) and, in a separate traced run, splits the epoch loop's
// host time across the layers it calls. Simulated outputs are checked
// against pinned digests and against the traced loop on every run.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh [-workload NAME|all] [-seed N] [-seconds S]
//	                      [-trace 0|1] [-trace-out FILE] [-o FILE] [-quick]
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/obs"
	"repro/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// report is the -o file: the host stamp plus every workload's outcome with
// medians, quartiles and sample counts.
type report struct {
	Host          obs.Host  `json:"host"`
	EngineVersion string    `json:"engine_version"`
	Seed          uint64    `json:"seed"`
	Seconds       float64   `json:"seconds"`
	Trace         bool      `json:"trace"`
	Quick         bool      `json:"quick"`
	Workloads     []outcome `json:"workloads"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "all", "workload to run, or all: "+fmt.Sprint(workloadNames))
		seed     = fs.Uint64("seed", 1, "input seed (>= 1): sim.Options.Seed and scenario.Spec.Seeds")
		seconds  = fs.Float64("seconds", 15, "length of each workload's measured window in seconds")
		trace    = fs.Int("trace", 0, "1 runs the traced loop and reports per-layer metrics; 0 reports end-to-end metrics")
		traceOut = fs.String("trace-out", "", "with -trace 1, write the first traced run of each workload to FILE as Chrome trace-event JSON")
		outFile  = fs.String("o", "", "write the full JSON report (host stamp, quartiles, sample counts) to FILE")
		quick    = fs.Bool("quick", false, "shrink every workload to 16 cores and one simulated second (smoke test)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "benchmark: unexpected arguments %v\n", fs.Args())
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "benchmark: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	case *traceOut != "" && *trace != 1:
		fmt.Fprintln(stderr, "benchmark: -trace-out needs -trace 1")
		return 2
	case !(*seconds > 0):
		fmt.Fprintf(stderr, "benchmark: -seconds must be positive, got %g\n", *seconds)
		return 2
	case *name != "all" && !slices.Contains(workloadNames, *name):
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %v or all)\n", *name, workloadNames)
		return 2
	}
	names := workloadNames
	if *name != "all" {
		names = []string{*name}
	}

	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, quick: *quick, keepTrace: *traceOut != ""}
	rep := report{
		Host: obs.HostInfo(), EngineVersion: scenario.EngineVersion,
		Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Quick: cfg.quick,
	}
	res := result{Correct: true, Metrics: map[string]resultValue{}}
	for _, n := range names {
		w, err := newWorkload(n, cfg.seed, cfg.quick)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 2
		}
		o := runWorkload(w, cfg)
		rep.Workloads = append(rep.Workloads, o)
		printOutcome(stdout, stderr, o)

		res.Correct = res.Correct && o.Correct
		res.Attempted += o.Attempted
		res.Failed += o.Failed
		for _, m := range o.Metrics {
			key := m.Name
			if len(names) > 1 {
				key = n + "/" + m.Name
			}
			res.Metrics[key] = resultValue{Value: m.Median, Unit: m.Unit}
		}
	}

	if *traceOut != "" {
		if err := writeFile(*traceOut, func(f io.Writer) error { return writeChromeTrace(f, rep.Workloads) }); err != nil {
			fmt.Fprintf(stderr, "benchmark: writing trace: %v\n", err)
			return 1
		}
	}
	if *outFile != "" {
		err := writeFile(*outFile, func(f io.Writer) error {
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			return enc.Encode(rep)
		})
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: writing report: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// printOutcome writes one workload's metrics, one per line with name and
// unit, to stdout and its failures to stderr.
func printOutcome(stdout, stderr io.Writer, o outcome) {
	fmt.Fprintf(stdout, "== %s: correct=%t attempted=%d failed=%d pin=%s digest=%s\n",
		o.Workload, o.Correct, o.Attempted, o.Failed, o.Pin, o.Digest)
	for _, m := range o.Metrics {
		fmt.Fprintf(stdout, "%-20s %-36s %14.6g %-14s [q1 %.6g, q3 %.6g] n=%d",
			o.Workload, m.Name, m.Median, m.Unit, m.Q1, m.Q3, m.N)
		if m.Raw != nil {
			fmt.Fprintf(stdout, " (host time: %.6g [q1 %.6g, q3 %.6g])", m.Raw.Median, m.Raw.Q1, m.Raw.Q3)
		}
		fmt.Fprintln(stdout)
	}
	for _, f := range o.Failures {
		fmt.Fprintf(stderr, "%s: FAIL %s\n", o.Workload, f)
	}
}

// writeFile creates path and writes it with fn, reporting the first error
// including the one from Close.
func writeFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
