package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
)

// RunMeta identifies one simulation run in the trace stream.
type RunMeta struct {
	Controller string  `json:"controller,omitempty"`
	Workload   string  `json:"workload,omitempty"`
	Cores      int     `json:"cores,omitempty"`
	BudgetW    float64 `json:"budget_w,omitempty"`
	EpochS     float64 `json:"epoch_s,omitempty"`
	Seed       uint64  `json:"seed,omitempty"`
	// FaultPlan is the run's fault-plan identity (fault.Plan.ID); empty
	// for a fault-free run.
	FaultPlan string `json:"fault_plan,omitempty"`
}

// EpochEvent is one sampled measurement epoch. Epoch counts from zero at
// the start of the measurement window. PowerW is the exact (noise-free)
// chip power, so integrating PowerW·EpochS over an undecimated trace
// reproduces the run's measured energy.
type EpochEvent struct {
	Epoch      int     `json:"epoch"`
	TimeS      float64 `json:"time_s"`
	PowerW     float64 `json:"power_w"`
	BudgetW    float64 `json:"budget_w"`
	OvershootW float64 `json:"overshoot_w"`
	MaxTempK   float64 `json:"max_temp_k"`
	// IslandPowerW sums observed per-core power by voltage-frequency
	// island (one entry for the whole chip when per-core DVFS is active).
	IslandPowerW []float64 `json:"island_power_w,omitempty"`
	// LevelHist counts cores per VF level at the start of the epoch.
	LevelHist []int `json:"level_hist,omitempty"`
	// DecideNs is the wall-clock controller decision latency this epoch.
	DecideNs int64 `json:"decide_ns"`
	// IPS is the chip-wide observed instruction throughput (sum of per-core
	// sensor readings), the per-epoch form of the BIPS the tables report.
	IPS float64 `json:"ips,omitempty"`
	// Learn* mirror the learning-introspection layer's headline metrics into
	// the epoch stream (so the monitor's frame store and alert rules see
	// them). All omitempty: traces recorded without -learn are byte-identical
	// to traces from builds that predate these fields.
	LearnTDEMA         float64 `json:"learn_td_ema,omitempty"`
	LearnChurn         float64 `json:"learn_churn,omitempty"`
	LearnConvergedFrac float64 `json:"learn_converged_frac,omitempty"`
	LearnEpsilon       float64 `json:"learn_epsilon,omitempty"`
	// Learn is the learning layer's full chip-level event. It is set only
	// on epochs delivered with detail (see EpochDetailSampler) of runs that
	// carry the layer, and the tracer writes it as its own learn record.
	Learn *LearnEvent `json:"-"`
}

// FaultEvent is one discrete injected fault (core death, telemetry
// blackout, budget-drop transient) reported by the fault-injection layer.
// Epoch counts from zero at the start of the measurement window and is
// negative for faults injected during warmup.
type FaultEvent struct {
	Epoch int     `json:"epoch"`
	TimeS float64 `json:"time_s"`
	// Kind names the fault class (see package fault's Kind* constants).
	Kind string `json:"kind"`
	// Core is the affected core, -1 for chip-wide faults.
	Core int `json:"core"`
	// UntilS is when the fault window ends; permanent faults omit it.
	UntilS float64 `json:"until_s,omitempty"`
}

// FaultObserver is optionally implemented by RunObservers that want the
// discrete fault events of a run alongside its epoch stream. Fault events
// are rare, so they are delivered unconditionally (no ShouldSample gate).
type FaultObserver interface {
	ObserveFault(ev *FaultEvent)
}

// AlertEvent is one fired run-health alert: a declarative rule (see
// internal/obs/monitor) whose condition held for its full ForEpochs
// window. Epoch counts from zero at the start of the measurement window.
type AlertEvent struct {
	Epoch int     `json:"epoch"`
	TimeS float64 `json:"time_s"`
	// Rule is the fired rule's name, Metric/Op/Threshold its condition.
	Rule      string  `json:"rule"`
	Metric    string  `json:"metric"`
	Op        string  `json:"op"`
	Threshold float64 `json:"threshold"`
	// Value is the metric value at the epoch the alert fired.
	Value float64 `json:"value"`
	// ForEpochs is how many consecutive epochs the condition held before
	// firing.
	ForEpochs int `json:"for_epochs"`
}

// AlertObserver is optionally implemented by RunObservers that want fired
// alerts in the run's stream. Like faults, alerts are rare and delivered
// unconditionally.
type AlertObserver interface {
	ObserveAlert(ev *AlertEvent)
}

// Record is one decoded JSONL trace line. Type selects which of the other
// fields are meaningful.
type Record struct {
	Type string `json:"type"` // "run_start" | "epoch" | "fault" | "alert" | "learn" | "converged" | "run_end"
	Run  int64  `json:"run"`
	// Meta is valid for run_start records.
	Meta RunMeta `json:"-"`
	// Event is valid for epoch records.
	Event EpochEvent `json:"-"`
	// Fault is valid for fault records.
	Fault FaultEvent `json:"-"`
	// Alert is valid for alert records.
	Alert AlertEvent `json:"-"`
	// Learn is valid for learn records.
	Learn LearnEvent `json:"-"`
	// Conv is valid for converged records.
	Conv ConvergedEvent `json:"-"`
	// Epochs and Sampled are valid for run_end records.
	Epochs  int `json:"epochs,omitempty"`
	Sampled int `json:"sampled,omitempty"`
}

// wire shapes for emission: embedding inlines the payload fields so each
// line is one flat JSON object.
type runStartRec struct {
	Type string `json:"type"`
	Run  int64  `json:"run"`
	RunMeta
}

type epochRec struct {
	Type string `json:"type"`
	Run  int64  `json:"run"`
	EpochEvent
}

type faultRec struct {
	Type string `json:"type"`
	Run  int64  `json:"run"`
	FaultEvent
}

type alertRec struct {
	Type string `json:"type"`
	Run  int64  `json:"run"`
	AlertEvent
}

type learnRec struct {
	Type string `json:"type"`
	Run  int64  `json:"run"`
	LearnEvent
}

type convergedRec struct {
	Type string `json:"type"`
	Run  int64  `json:"run"`
	ConvergedEvent
}

type runEndRec struct {
	Type    string `json:"type"`
	Run     int64  `json:"run"`
	Epochs  int    `json:"epochs"`
	Sampled int    `json:"sampled"`
}

// Sink consumes encoded trace lines. Emit receives one JSON object without
// a trailing newline and must not retain the slice. Implementations are
// called under the tracer's lock, so they need not be concurrency-safe.
type Sink interface {
	Emit(line []byte) error
	Close() error
}

// WriterSink buffers lines to an io.Writer, closing it on Close when it is
// also an io.Closer.
type WriterSink struct {
	w  io.Writer
	bw *bufio.Writer
}

// NewWriterSink wraps w.
func NewWriterSink(w io.Writer) *WriterSink {
	return &WriterSink{w: w, bw: bufio.NewWriterSize(w, 1<<16)}
}

// Emit implements Sink.
func (s *WriterSink) Emit(line []byte) error {
	if _, err := s.bw.Write(line); err != nil {
		return err
	}
	return s.bw.WriteByte('\n')
}

// Close implements Sink.
func (s *WriterSink) Close() error {
	err := s.bw.Flush()
	if c, ok := s.w.(io.Closer); ok {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Observer receives structured events from simulation runs. BeginRun is
// called once per run and returns a handle scoped to that run, so one
// Observer may watch many (possibly concurrent) runs.
type Observer interface {
	BeginRun(meta RunMeta) RunObserver
}

// RunObserver consumes one run's epoch stream. The harness calls
// ShouldSample first and skips event assembly entirely when it returns
// false, keeping the disabled path free. ObserveEpoch must not retain the
// event or its slices. End marks the run finished and hands over the
// summary the run returns (zero if the run failed before measuring it).
type RunObserver interface {
	ShouldSample(epoch int) bool
	ObserveEpoch(ev *EpochEvent)
	End(s metrics.Summary)
}

// EpochDetailSampler is an optional RunObserver refinement for observers
// that sample every epoch but only need the expensive aggregate fields
// (IslandPowerW, LevelHist, Learn) on some of them. When a RunObserver
// implements it, the harness calls WantsEpochDetail after a true
// ShouldSample (same epoch, same goroutine) and on false delivers the event
// with those fields nil; the scalar fields are always populated. An
// observer answers only for itself: behind a Tee, an epoch carries detail
// when any member that sampled it wants detail. Observers that don't
// implement it get full detail on every sampled epoch.
type EpochDetailSampler interface {
	WantsEpochDetail(epoch int) bool
}

// Nop returns an Observer whose runs sample nothing — the reference
// "disabled" observer whose per-epoch cost is a single predictable branch.
func Nop() Observer { return nopObserver{} }

type nopObserver struct{}

func (nopObserver) BeginRun(RunMeta) RunObserver { return nopRun{} }

type nopRun struct{}

func (nopRun) ShouldSample(int) bool    { return false }
func (nopRun) ObserveEpoch(*EpochEvent) {}
func (nopRun) End(metrics.Summary)      {}

// TracerOptions tunes a Tracer.
type TracerOptions struct {
	// Every is the decimation stride: epochs 0, Every, 2·Every, … are
	// sampled. Values below 1 default to 1 (sample every epoch).
	Every int
	// Registry, when set, receives aggregate tracer metrics: run and
	// sample counters plus a decision-latency histogram.
	Registry *Registry
}

// Tracer is an Observer that emits JSONL records to a Sink. It is safe for
// concurrent runs; lines from interleaved runs are distinguished by run ID.
type Tracer struct {
	mu    sync.Mutex
	sink  Sink
	every int
	runs  atomic.Int64

	runCtr     *Counter
	sampleCtr  *Counter
	decideHist *Histogram
}

// NewTracer builds a tracer over the sink.
func NewTracer(sink Sink, opt TracerOptions) *Tracer {
	if opt.Every < 1 {
		opt.Every = 1
	}
	t := &Tracer{sink: sink, every: opt.Every}
	if r := opt.Registry; r != nil {
		t.runCtr = r.Counter("obs.trace.runs")
		t.sampleCtr = r.Counter("obs.trace.samples")
		// Decision latency from sub-microsecond per-core loops up to
		// multi-millisecond centralised sweeps.
		t.decideHist, _ = r.Histogram("obs.trace.decide_ns", []float64{
			1e3, 1e4, 1e5, 1e6, 1e7, 1e8,
		})
	}
	return t
}

// BeginRun implements Observer.
func (t *Tracer) BeginRun(meta RunMeta) RunObserver {
	id := t.runs.Add(1)
	if t.runCtr != nil {
		t.runCtr.Inc()
	}
	t.emit(runStartRec{Type: "run_start", Run: id, RunMeta: meta})
	return &runTracer{t: t, id: id}
}

// Close flushes and closes the sink.
func (t *Tracer) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sink.Close()
}

func (t *Tracer) emit(rec any) {
	b, err := json.Marshal(rec)
	if err != nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sink.Emit(b) //nolint:errcheck // tracing is best-effort; sinks surface errors on Close
}

// runTracer tracks one run's stream. The counters are atomic so a single
// run's observer tolerates concurrent emitters (e.g. a sharded stepping
// loop reporting from worker goroutines), matching the Tracer's own
// concurrency guarantee.
type runTracer struct {
	t       *Tracer
	id      int64
	epochs  atomic.Int64
	sampled atomic.Int64
}

// ShouldSample implements RunObserver.
func (r *runTracer) ShouldSample(epoch int) bool {
	return epoch%r.t.every == 0
}

// ObserveEpoch implements RunObserver.
func (r *runTracer) ObserveEpoch(ev *EpochEvent) {
	last := int64(ev.Epoch + 1)
	for {
		seen := r.epochs.Load()
		if last <= seen || r.epochs.CompareAndSwap(seen, last) {
			break
		}
	}
	r.sampled.Add(1)
	if r.t.sampleCtr != nil {
		r.t.sampleCtr.Inc()
	}
	if r.t.decideHist != nil {
		r.t.decideHist.Observe(float64(ev.DecideNs))
	}
	r.t.emit(epochRec{Type: "epoch", Run: r.id, EpochEvent: *ev})
	if ev.Learn != nil {
		r.t.emit(learnRec{Type: "learn", Run: r.id, LearnEvent: *ev.Learn})
	}
}

// ObserveFault implements FaultObserver.
func (r *runTracer) ObserveFault(ev *FaultEvent) {
	r.t.emit(faultRec{Type: "fault", Run: r.id, FaultEvent: *ev})
}

// ObserveAlert implements AlertObserver.
func (r *runTracer) ObserveAlert(ev *AlertEvent) {
	r.t.emit(alertRec{Type: "alert", Run: r.id, AlertEvent: *ev})
}

// ObserveConverged implements ConvergedObserver.
func (r *runTracer) ObserveConverged(ev *ConvergedEvent) {
	r.t.emit(convergedRec{Type: "converged", Run: r.id, ConvergedEvent: *ev})
}

// End implements RunObserver.
func (r *runTracer) End(metrics.Summary) {
	r.t.emit(runEndRec{
		Type: "run_end", Run: r.id,
		Epochs: int(r.epochs.Load()), Sampled: int(r.sampled.Load()),
	})
}

// ReadRecords parses a JSONL trace stream back into records, the inverse
// of what Tracer emits.
func ReadRecords(rd io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var probe struct {
			Type string `json:"type"`
			Run  int64  `json:"run"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		rec := Record{Type: probe.Type, Run: probe.Run}
		switch probe.Type {
		case "run_start":
			if err := json.Unmarshal(raw, &rec.Meta); err != nil {
				return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
			}
		case "epoch":
			if err := json.Unmarshal(raw, &rec.Event); err != nil {
				return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
			}
		case "fault":
			if err := json.Unmarshal(raw, &rec.Fault); err != nil {
				return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
			}
		case "alert":
			if err := json.Unmarshal(raw, &rec.Alert); err != nil {
				return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
			}
		case "learn":
			if err := json.Unmarshal(raw, &rec.Learn); err != nil {
				return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
			}
		case "converged":
			if err := json.Unmarshal(raw, &rec.Conv); err != nil {
				return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
			}
		case "run_end":
			var end runEndRec
			if err := json.Unmarshal(raw, &end); err != nil {
				return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
			}
			rec.Epochs, rec.Sampled = end.Epochs, end.Sampled
		default:
			return nil, fmt.Errorf("obs: trace line %d: unknown record type %q", line, probe.Type)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
