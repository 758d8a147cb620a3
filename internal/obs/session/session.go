// Package session is the one observability bootstrap every sim-running
// command shares. A command registers the shared flags on its flag set
// (Register), opens a Session after parsing (Flags.Start), hands
// Session.Stack to every run it builds, and closes the session on exit.
// The session owns the JSONL tracer, the debug HTTP server, the run-health
// monitor, the learning-introspection layer, the run ledger with its
// flight recorder, and the one span ring that -perfetto and
// /debug/timeline read.
package session

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
	"repro/internal/obs/learn"
	"repro/internal/obs/ledger"
	"repro/internal/obs/monitor"
	"repro/internal/sim"
)

// Flags holds the shared observability flags of one command.
type Flags struct {
	traceEvents   string
	traceEvery    int
	debugAddr     string
	monitor       bool
	alertRules    string
	perfetto      string
	learn         bool
	snapshotEvery int
	ledgerDir     string
	noLedger      bool
}

// Register adds the shared observability flags to fs. traceEvery is the
// command's default -trace-every stride.
func Register(fs *flag.FlagSet, traceEvery int) *Flags {
	f := &Flags{}
	fs.StringVar(&f.traceEvents, "trace-events", "", "write structured JSONL epoch events for every run to this file ('-' for stdout)")
	fs.IntVar(&f.traceEvery, "trace-every", traceEvery, "sample every Nth epoch in -trace-events output")
	fs.StringVar(&f.debugAddr, "debug-addr", "", "serve /metrics, /debug/obs and /debug/pprof on this address (e.g. localhost:6060)")
	fs.BoolVar(&f.monitor, "monitor", false, "enable the run-health monitor: time series, quantile sketches, claim-invariant alerts, summary on exit")
	fs.StringVar(&f.alertRules, "alert-rules", "", "alert rules JSON file (implies -monitor; default rules derive from each run's budget)")
	fs.StringVar(&f.perfetto, "perfetto", "", "write controller phase spans as Perfetto trace-event JSON to this file on exit")
	fs.BoolVar(&f.learn, "learn", false, "enable learning introspection: per-agent TD-error/epsilon/churn telemetry, convergence detection, summary on exit, and a learn.json report per learning run in the ledger record (odrl-obs -show)")
	fs.IntVar(&f.snapshotEvery, "snapshot-every", 0, "record a content-addressed policy snapshot every N control epochs, plus the final policy, in the ledger record (implies -learn; 0 = none)")
	fs.StringVar(&f.ledgerDir, "ledger", "", "run-ledger directory (default $ODRL_LEDGER or "+ledger.DefaultDir+"): append a queryable run record and arm the flight recorder")
	fs.BoolVar(&f.noLedger, "no-ledger", false, "disable the run ledger and flight recorder")
	return f
}

// Validate reports a malformed flag combination, before Start has any side
// effect; commands exit 2 on it.
func (f *Flags) Validate() error {
	switch {
	case f.snapshotEvery < 0:
		return fmt.Errorf("negative -snapshot-every %d", f.snapshotEvery)
	case f.snapshotEvery > 0 && f.noLedger:
		return errors.New("-snapshot-every needs the run ledger (snapshots are ledger artifacts); drop -no-ledger")
	}
	return nil
}

// Session is one command's observability: the layers every run reports to,
// plus the resources behind them.
type Session struct {
	// Stack is what every run the command builds carries: the flight
	// recorder teed with the tracer, the monitor, the learn layer and the
	// session's span ring. Layers the flags left off are nil.
	Stack sim.Stack
	// Ledger is the run-record session (nil with -no-ledger). The command
	// finishes it with the run's outcome.
	Ledger *ledger.CLI

	registry *obs.Registry
	tracer   *obs.Tracer
	debug    *obs.DebugServer
	spans    *monitor.Timeline // nil when nothing reads spans
	perfetto string
}

// Start opens the session for one invocation of tool with args. The trace
// file "-" streams to stdout; the ledger's warnings and post-mortem
// notices go to stderr. Start fails only on setup errors (an unwritable
// trace file, a busy debug address, an unreadable rules file); it then
// releases everything it had opened. The ledger opens after every step
// that can fail, so a failed start leaves no run record.
func (f *Flags) Start(tool string, args []string, stdout, stderr io.Writer) (*Session, error) {
	s := &Session{registry: obs.NewRegistry(), perfetto: f.perfetto}
	var traceOut io.Writer
	switch f.traceEvents {
	case "":
		if f.debugAddr != "" {
			// A debug endpoint without a trace file still wants live
			// counters and the decide-latency sketch in /debug/obs.
			traceOut = io.Discard
		}
	case "-":
		// Hide stdout's Closer so Close never shuts the process stream.
		traceOut = struct{ io.Writer }{stdout}
	default:
		file, err := os.Create(f.traceEvents)
		if err != nil {
			return nil, fmt.Errorf("trace file: %w", err)
		}
		traceOut = file
	}
	if traceOut != nil {
		s.tracer = obs.NewTracer(obs.NewWriterSink(traceOut), obs.TracerOptions{Every: f.traceEvery, Registry: s.registry})
		s.Stack.Observer = s.tracer
	}
	if f.debugAddr != "" {
		d, err := obs.StartDebug(f.debugAddr, s.registry)
		if err != nil {
			s.Close(nil) //nolint:errcheck // already failing
			return nil, err
		}
		s.debug = d
	}
	monitorOn := f.monitor || f.alertRules != ""
	if monitorOn {
		var rules []monitor.Rule
		if f.alertRules != "" {
			file, err := os.Open(f.alertRules)
			if err == nil {
				rules, err = monitor.LoadRules(file)
				file.Close() //nolint:errcheck // read-only
			}
			if err != nil {
				s.Close(nil) //nolint:errcheck // already failing
				return nil, fmt.Errorf("alert rules: %w", err)
			}
		}
		s.Stack.Monitor = monitor.New(monitor.Options{Rules: rules, Registry: s.registry})
		if s.debug != nil {
			s.debug.Handle("/debug/live", s.Stack.Monitor.LiveHandler())
			s.debug.Handle("/debug/health", s.Stack.Monitor.HealthHandler())
		}
	}
	s.Ledger = ledger.StartCLI(tool, args, ledger.ResolveDir(f.ledgerDir), f.noLedger, stderr)
	// The one span ring: the flight recorder's, or with the ledger off a
	// ring of the session's own when the monitor's surfaces or -perfetto
	// read it.
	if rec := s.Ledger.Recorder(); rec != nil {
		s.spans = rec.Timeline()
	} else if monitorOn || f.perfetto != "" {
		s.spans = monitor.NewTimeline(monitor.DefaultTimelineCap)
	}
	if s.spans != nil {
		s.Stack.SpanSink = s.spans
		if s.debug != nil && monitorOn {
			s.debug.Handle("/debug/timeline", monitor.TimelineHandler(s.spans))
		}
	}
	if f.learn || f.snapshotEvery > 0 {
		opt := learn.Options{SnapshotEvery: f.snapshotEvery, Registry: s.registry}
		if s.Ledger != nil {
			// Each learning run's report and snapshots land in this
			// invocation's ledger record, where odrl-obs reads them.
			opt.Artifacts = s.Ledger.AddArtifact
		}
		s.Stack.Learn = learn.New(opt)
		if s.debug != nil {
			s.debug.Handle("/debug/learn", learn.DebugHandler(s.Stack.Learn))
		}
	}
	s.Stack.Observer = s.Ledger.WrapObserver(s.Stack.Observer)
	return s, nil
}

// WriteDecideQuantiles renders the decide-latency distribution the tracer
// collected in its obs.trace.decide_ns sketch: p50/p95/p99 next to the
// mean, since tail latency is what the real-time feasibility claim is
// about. Writes nothing when no samples were traced.
func (s *Session) WriteDecideQuantiles(w io.Writer) error {
	sk, ok := s.registry.Snapshot().Sketches["obs.trace.decide_ns"]
	if !ok || sk.Count() == 0 {
		return nil
	}
	_, err := fmt.Fprintf(w, "\ndecide latency (us): p50 %.1f  p95 %.1f  p99 %.1f  mean %.1f  (n=%d)\n",
		sk.Quantile(0.50)/1e3, sk.Quantile(0.95)/1e3, sk.Quantile(0.99)/1e3, sk.Mean()/1e3, sk.Count())
	return err
}

// Close writes the Perfetto file when one was requested, renders the
// run-health and learning summaries to stderr (nil skips them), flushes the
// tracer and stops the debug server. It returns every failure joined,
// including any artifact-writing error of the learn layer. The ledger is not
// touched: the command finishes it with the run's outcome.
func (s *Session) Close(stderr io.Writer) error {
	var errs []error
	if s.perfetto != "" && s.spans != nil {
		errs = append(errs, writePerfetto(s.perfetto, s.spans))
	}
	if mon := s.Stack.Monitor; mon != nil && stderr != nil {
		errs = append(errs, mon.WriteAlertSummary(stderr))
	}
	if lrn := s.Stack.Learn; lrn != nil {
		for _, r := range lrn.Runs() {
			if sum := r.Summarize(false); sum.Epochs > 0 && stderr != nil {
				writeLearnSummary(stderr, sum)
			}
			errs = append(errs, r.Err())
		}
	}
	if s.tracer != nil {
		errs = append(errs, s.tracer.Close())
	}
	if s.debug != nil {
		errs = append(errs, s.debug.Close())
	}
	return errors.Join(errs...)
}

// writePerfetto exports the session's span ring as Chrome trace-event
// JSON.
func writePerfetto(path string, tl *monitor.Timeline) error {
	f, err := os.Create(path)
	if err == nil {
		err = tl.WriteTraceJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("perfetto trace: %w", err)
	}
	return nil
}

// writeLearnSummary renders one run's end-of-run convergence line.
func writeLearnSummary(w io.Writer, s learn.Summary) {
	fmt.Fprintf(w, "learn: run %d (%s): %d/%d agents converged", s.Run, s.Meta.Controller, s.Converged, s.LiveAgents)
	if s.Converged > 0 {
		fmt.Fprintf(w, " (median %d epochs)", s.EpochsToConvergeP50)
	}
	fmt.Fprintf(w, ", td_ema %.4f, churn %.4f, coverage %.2f\n", s.TDErrEMA, s.Churn, s.Coverage)
}
