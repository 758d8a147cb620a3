package ledger

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// CLI is one command's ledger session: it owns the run record being
// accumulated, the flight recorder whose bundles land in the run's
// artifact directory, and the final append. Every cmd/ binary builds one
// at startup — directly (StartCLI) when it only records, or inside its
// observability session (internal/obs/session) — and finishes it on every
// exit path (Finish).
//
// A nil *CLI is valid and inert: the -no-ledger path costs a handful of
// nil checks.
type CLI struct {
	led    *Ledger
	rec    *flight.Recorder
	start  time.Time
	stderr io.Writer // the command's stderr; writes hold mu

	mu       sync.Mutex
	record   Record
	finished bool
}

// StartCLI opens the ledger for one command run and returns the session,
// or nil when disabled. dir is the resolved ledger directory (see
// ResolveDir); disabled is the -no-ledger flag. Ledger problems are
// reported to stderr, the command's own, and disable the session rather
// than failing the run: bookkeeping must never take down the work it
// documents. The session's later warnings and post-mortem notices go to
// stderr too.
func StartCLI(tool string, args []string, dir string, disabled bool, stderr io.Writer) *CLI {
	if disabled || dir == "" {
		return nil
	}
	led, err := Open(dir)
	if err != nil {
		fmt.Fprintf(stderr, "warning: ledger disabled: %v\n", err)
		return nil
	}
	//odrl:allow wallclock the run record's start/wall/CPU stamps are host telemetry, never simulation inputs
	start := time.Now()
	c := &CLI{
		led:    led,
		start:  start,
		stderr: stderr,
		record: Record{
			Schema: Schema,
			ID:     NewID(start),
			Tool:   tool,
			Args:   append([]string(nil), args...),
			Start:  start.UTC().Format(time.RFC3339Nano),
			Host:   obs.HostInfo(),
			Status: StatusOK,
		},
	}
	c.rec = flight.New(flight.Options{
		OnDump:   c.onDump,
		OnRunEnd: c.onRunEnd,
	})
	notifySigquit(c)
	return c
}

// Recorder returns the session's flight recorder (nil-safe).
func (c *CLI) Recorder() *flight.Recorder {
	if c == nil {
		return nil
	}
	return c.rec
}

// WrapObserver tees the flight recorder with next, so every run the
// command starts is post-mortem-dumpable. Nil-safe: with no session, next
// passes through untouched.
func (c *CLI) WrapObserver(next obs.Observer) obs.Observer {
	if c == nil {
		return next
	}
	return c.rec.Wrap(next)
}

// RunID returns the session's run ID ("" when disabled).
func (c *CLI) RunID() string {
	if c == nil {
		return ""
	}
	return c.record.ID
}

// Dir returns the ledger directory ("" when disabled).
func (c *CLI) Dir() string {
	if c == nil {
		return ""
	}
	return c.led.Dir()
}

// RecordScenario links the run record to a scenario spec: the hash is the
// cross-run join key; cacheHit notes the engine served the cached table.
func (c *CLI) RecordScenario(experiment, specHash, engineVersion string, cacheHit bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.record.Scenarios = append(c.record.Scenarios, ScenarioRef{
		Experiment:    experiment,
		SpecHash:      specHash,
		EngineVersion: engineVersion,
		CacheHit:      cacheHit,
	})
}

// AddBenchPoint records one benchmark-gate number, making BENCH_*.json
// content queryable across the ledger.
func (c *CLI) AddBenchPoint(kind, caseName, metric string, value float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.record.Bench = append(c.record.Bench, BenchPoint{Kind: kind, Case: caseName, Metric: metric, Value: value})
}

// AddArtifact stores data under the run's artifact directory and records
// the pointer. Errors are reported to stderr, never fatal.
func (c *CLI) AddArtifact(name string, data []byte) {
	if c == nil {
		return
	}
	art, err := c.led.WriteArtifact(c.record.ID, name, data)
	if err != nil {
		c.printf("warning: ledger artifact %s: %v\n", name, err)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.record.Artifacts = append(c.record.Artifacts, art)
}

// onRunEnd folds one finished run's flight summary into the record.
func (c *CLI) onRunEnd(_ int, s flight.Summary) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.record.Runs = append(c.record.Runs, RunSummary{
		Controller: s.Meta.Controller,
		Workload:   s.Meta.Workload,
		Seed:       s.Meta.Seed,
		Cores:      s.Meta.Cores,
		BudgetW:    s.Meta.BudgetW,
		FaultPlan:  s.Meta.FaultPlan,
		Epochs:     s.Epochs,
		Alerts:     s.Alerts,
		Faults:     s.Faults,
		Metrics:    s.Metrics,
	})
	c.record.Alerts += s.Alerts
	c.record.Faults += s.Faults
}

// onDump lands a flight post-mortem bundle in the run's artifact
// directory, named by run sequence so concurrent runs never collide.
func (c *CLI) onDump(runSeq int, _ obs.RunMeta, trigger string, files []flight.BundleFile) {
	for _, f := range files {
		c.AddArtifact(fmt.Sprintf("run%03d/%s", runSeq, f.Name), f.Data)
	}
	c.printf("flight: %s post-mortem for run %d -> %s\n",
		trigger, runSeq, c.led.runArtifactHint(c.record.ID, runSeq))
}

// printf writes to the command's stderr. Concurrent runs report through
// one session, so writes are serialised.
func (c *CLI) printf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fmt.Fprintf(c.stderr, format, args...)
}

// runArtifactHint renders the human-facing bundle location for stderr.
func (l *Ledger) runArtifactHint(id string, runSeq int) string {
	return fmt.Sprintf("%s/%s/%s/run%03d/flight/", l.dir, RunsDirName, id, runSeq)
}

// Finish closes the session: on failure it dumps post-mortem bundles for
// every retained run, then stamps wall/CPU time and appends the record.
// Idempotent — mains defer it and also call it on early-exit paths.
func (c *CLI) Finish(runErr error) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.finished {
		c.mu.Unlock()
		return
	}
	c.finished = true
	c.mu.Unlock()

	if runErr != nil {
		c.rec.DumpAll("failed")
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	//odrl:allow wallclock elapsed wall/CPU stamps are run-record telemetry, not simulation inputs
	c.record.WallS = time.Since(c.start).Seconds()
	c.record.CPUS = obs.CPUSeconds()
	if runErr != nil {
		c.record.Status = StatusFailed
		c.record.Error = runErr.Error()
	}
	if err := c.led.Append(c.record); err != nil {
		fmt.Fprintf(c.stderr, "warning: %v\n", err)
	}
}
