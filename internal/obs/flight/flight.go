// Package flight is the always-on flight recorder: a bounded ring of
// recent epoch events, phase spans and quantile snapshots that costs
// almost nothing while a run is healthy and dumps a post-mortem bundle
// (last-N epochs JSONL + Perfetto slice + alert context) the moment an
// alert fires, a run fails, or the operator sends SIGQUIT. The bundle
// lands in the run's ledger artifact directory, so the epochs leading up
// to an incident survive process exit.
//
// The recorder is a plain obs.Observer teed with the JSONL tracer and the
// monitor. It samples every epoch (alerts can fire on any) but keeps only
// scalars, so it declines the detail the tracer's stride pays for; the
// monitor observes each epoch last, so an alert reaches the ring after the
// epoch it names.
package flight

import (
	"sync"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/monitor"
)

// DefaultRingCap is the default retained-epoch window. The acceptance bar
// for post-mortems is "last ≥64 epochs"; 256 gives headroom at ~20 KB per
// run.
const DefaultRingCap = 256

// MinRingCap is the floor: a post-mortem with fewer epochs of context
// than an alert rule's hold window is useless.
const MinRingCap = 64

// defaultKeepRuns bounds how many finished runs stay dumpable (for
// process-failure and SIGQUIT dumps after the run ended).
const defaultKeepRuns = 16

// BundleFile is one file of a post-mortem bundle, named relative to the
// run's artifact directory.
type BundleFile struct {
	Name string
	Data []byte
}

// Summary is one run's end-of-run rollup, delivered to OnRunEnd — the
// ledger glue turns it into the run record's metric summary. Metric keys
// follow the ledger's judged-metric registry (bips, over_j, …).
type Summary struct {
	Meta   obs.RunMeta
	Epochs int
	Alerts int
	Faults int
	// Metrics: bips, bips_per_w (omitted when no energy was drawn),
	// mean_w, peak_w, max_temp_k, over_j and over_time_frac are the run's
	// own metrics.Summary, the numbers its table shows; decide_p50_ns and
	// decide_p99_ns are wall-clock host telemetry from the recorder's
	// decide sketch.
	Metrics map[string]float64
}

// Options configures a Recorder.
type Options struct {
	// RingCap bounds the retained epoch window per run (default
	// DefaultRingCap, floor MinRingCap).
	RingCap int
	// KeepRuns bounds how many runs stay dumpable after they end.
	KeepRuns int
	// OnDump receives each post-mortem bundle. runSeq is the recorder's
	// run sequence number (unique within the process), trigger is
	// "alert", "failed" or "sigquit". Nil disables dumping (the ring
	// still records, for tests and future triggers).
	OnDump func(runSeq int, meta obs.RunMeta, trigger string, files []BundleFile)
	// OnRunEnd receives each run's summary at End. Nil is allowed.
	OnRunEnd func(runSeq int, s Summary)
}

// Recorder is the flight-recorder observer. One recorder watches every
// run of a process; tee it with another observer (commonly the JSONL
// tracer) with Wrap, or use it alone as an obs.Observer.
type Recorder struct {
	opt      Options
	timeline *monitor.Timeline

	mu   sync.Mutex
	seq  int
	runs []*flightRun // retained for DumpAll; bounded by KeepRuns
}

// New builds a recorder.
func New(opt Options) *Recorder {
	if opt.RingCap <= 0 {
		opt.RingCap = DefaultRingCap
	}
	if opt.RingCap < MinRingCap {
		opt.RingCap = MinRingCap
	}
	if opt.KeepRuns <= 0 {
		opt.KeepRuns = defaultKeepRuns
	}
	return &Recorder{opt: opt, timeline: monitor.NewTimeline(monitor.DefaultTimelineCap)}
}

// Timeline returns the recorder's span ring; the harness tees controller
// phase spans into it alongside the monitor's timeline, and dumps export
// it as the bundle's Perfetto slice.
func (r *Recorder) Timeline() *monitor.Timeline { return r.timeline }

// Wrap tees the recorder with next: obs.Tee(r, next). next may be nil.
func (r *Recorder) Wrap(next obs.Observer) obs.Observer {
	return obs.Tee(r, next)
}

// BeginRun implements obs.Observer.
func (r *Recorder) BeginRun(meta obs.RunMeta) obs.RunObserver {
	f := &flightRun{
		rec:    r,
		meta:   meta,
		ring:   make([]frame, 0, r.opt.RingCap),
		decide: monitor.NewSketch(),
		dumped: map[string]bool{},
	}
	r.mu.Lock()
	r.seq++
	f.seq = r.seq
	r.runs = append(r.runs, f)
	// Evict the oldest *finished* runs beyond the keep window; live runs
	// are never dropped (they must stay dumpable on failure).
	if len(r.runs) > r.opt.KeepRuns {
		kept := r.runs[:0]
		excess := len(r.runs) - r.opt.KeepRuns
		for _, fr := range r.runs {
			if excess > 0 && fr != f && fr.ended() {
				excess--
				continue
			}
			kept = append(kept, fr)
		}
		r.runs = kept
	}
	r.mu.Unlock()
	return f
}

// DumpAll dumps a post-mortem bundle for every retained run that has not
// already dumped for this trigger. Safe to call from a signal handler
// goroutine while runs are observing epochs.
func (r *Recorder) DumpAll(trigger string) {
	r.mu.Lock()
	runs := append([]*flightRun(nil), r.runs...)
	r.mu.Unlock()
	for _, f := range runs {
		f.dump(trigger)
	}
}

// frame is one retained epoch: the scalar slice of obs.EpochEvent.
type frame struct {
	Epoch      int     `json:"epoch"`
	TimeS      float64 `json:"time_s"`
	PowerW     float64 `json:"power_w"`
	BudgetW    float64 `json:"budget_w"`
	OvershootW float64 `json:"overshoot_w"`
	MaxTempK   float64 `json:"max_temp_k"`
	DecideNs   int64   `json:"decide_ns"`
	IPS        float64 `json:"ips,omitempty"`

	LearnTDEMA         float64 `json:"learn_td_ema,omitempty"`
	LearnChurn         float64 `json:"learn_churn,omitempty"`
	LearnConvergedFrac float64 `json:"learn_converged_frac,omitempty"`
	LearnEpsilon       float64 `json:"learn_epsilon,omitempty"`
}

// maxKeptEvents bounds the alert/fault context lists in a bundle.
const maxKeptEvents = 32

// flightRun records one run. The mutex exists for dump concurrency (a
// SIGQUIT DumpAll races the epoch loop); on the steady path it is
// uncontended, so the per-epoch cost stays a lock/unlock pair plus a ring
// store.
type flightRun struct {
	rec  *Recorder
	seq  int
	meta obs.RunMeta

	mu      sync.Mutex
	ring    []frame // grows to cap, then wraps via nextIdx
	nextIdx int
	epochs  int
	alerts  []obs.AlertEvent
	alertN  int
	faults  []obs.FaultEvent
	faultN  int
	decide  *monitor.Sketch
	dumped  map[string]bool
	done    bool
}

func (f *flightRun) ended() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.done
}

// ShouldSample implements obs.RunObserver: the recorder samples every
// epoch (the ring must hold the run's most recent window regardless of
// the tracer's stride).
func (f *flightRun) ShouldSample(int) bool { return true }

// WantsEpochDetail implements obs.EpochDetailSampler: the ring keeps only
// scalars.
func (f *flightRun) WantsEpochDetail(int) bool { return false }

// ObserveEpoch implements obs.RunObserver. Allocation-free on the steady
// path: the ring is preallocated and the sketch is bucketed.
//
//odrl:hotpath
func (f *flightRun) ObserveEpoch(ev *obs.EpochEvent) {
	f.mu.Lock()
	fr := frame{
		Epoch:      ev.Epoch,
		TimeS:      ev.TimeS,
		PowerW:     ev.PowerW,
		BudgetW:    ev.BudgetW,
		OvershootW: ev.OvershootW,
		MaxTempK:   ev.MaxTempK,
		DecideNs:   ev.DecideNs,
		IPS:        ev.IPS,

		LearnTDEMA:         ev.LearnTDEMA,
		LearnChurn:         ev.LearnChurn,
		LearnConvergedFrac: ev.LearnConvergedFrac,
		LearnEpsilon:       ev.LearnEpsilon,
	}
	if len(f.ring) < cap(f.ring) {
		f.ring = append(f.ring, fr)
	} else {
		f.ring[f.nextIdx] = fr
		f.nextIdx = (f.nextIdx + 1) % len(f.ring)
	}
	f.epochs++
	f.decide.Observe(float64(ev.DecideNs))
	f.mu.Unlock()
}

// ObserveAlert implements obs.AlertObserver: the first alert of a run
// triggers its post-mortem dump (later alerts only extend the context
// list — the interesting window is the one before the first firing).
func (f *flightRun) ObserveAlert(ev *obs.AlertEvent) {
	f.mu.Lock()
	f.alertN++
	if len(f.alerts) < maxKeptEvents {
		f.alerts = append(f.alerts, *ev)
	}
	f.mu.Unlock()
	f.dump("alert")
}

// ObserveFault implements obs.FaultObserver.
func (f *flightRun) ObserveFault(ev *obs.FaultEvent) {
	f.mu.Lock()
	f.faultN++
	if len(f.faults) < maxKeptEvents {
		f.faults = append(f.faults, *ev)
	}
	f.mu.Unlock()
}

// End implements obs.RunObserver: rolls the run's summary up with the
// recorder's counts and delivers it.
func (f *flightRun) End(rs metrics.Summary) {
	f.mu.Lock()
	f.done = true
	s := f.summaryLocked(rs)
	f.mu.Unlock()
	if cb := f.rec.opt.OnRunEnd; cb != nil {
		cb(f.seq, s)
	}
}

func (f *flightRun) summaryLocked(rs metrics.Summary) Summary {
	s := Summary{
		Meta:   f.meta,
		Epochs: f.epochs,
		Alerts: f.alertN,
		Faults: f.faultN,
	}
	if rs.DurS <= 0 {
		return s // no measured window: the run fails its summary check
	}
	s.Metrics = map[string]float64{
		"bips":           rs.BIPS(),
		"mean_w":         rs.MeanW,
		"peak_w":         rs.PeakW,
		"max_temp_k":     rs.MaxTempK,
		"over_j":         rs.OverJ,
		"over_time_frac": rs.OverTimeFrac(),
		"decide_p50_ns":  f.decide.Quantile(0.5),
		"decide_p99_ns":  f.decide.Quantile(0.99),
	}
	if rs.EnergyJ > 0 {
		s.Metrics["bips_per_w"] = rs.EnergyEff()
	}
	return s
}
