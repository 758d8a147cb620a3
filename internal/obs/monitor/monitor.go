package monitor

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// maxKeptAlerts bounds the per-run alert list the summary retains; the
// fired counters stay exact beyond it.
const maxKeptAlerts = 64

// ipsEMAAlpha smooths the per-epoch chip throughput before the
// collapse-detection metrics (ips_vs_peak): ~20-epoch memory, so workload
// phase flickers don't read as collapses.
const ipsEMAAlpha = 0.05

// overshootEMAAlpha smooths the overshoot fraction (~10-epoch memory):
// long enough to bridge an oscillating controller's under-budget epochs,
// short enough that a genuine violation registers within the rule's
// consecutive-epoch window.
const overshootEMAAlpha = 0.1

// p99RefreshEpochs is how often the decide_p99_ns derived metric (and its
// exported gauge) is recomputed from the sketch; quantile queries walk the
// bucket array, so refreshing on a stride keeps the per-epoch cost O(1).
const p99RefreshEpochs = 16

// Options configures a Monitor.
type Options struct {
	// Rules is the alert rule set evaluated for every run. Empty installs
	// DefaultRules derived from each run's own budget and epoch length.
	Rules []Rule
	// Registry, when set, receives monitor aggregates: alert/fault/epoch
	// counters and live gauges for the last observed epoch, so /metrics
	// exports them.
	Registry *obs.Registry
}

// Monitor is the run-health layer: an obs.Observer that feeds every run's
// epoch stream into bounded time series, quantile sketches and the alert
// engine, keeps a span timeline for Perfetto export, and serves live HTTP
// views. It is safe for concurrent runs and never mutates what it
// observes, so simulation results are bit-identical with or without it.
type Monitor struct {
	opt      Options
	timeline *Timeline
	live     *liveHub

	mu   sync.Mutex
	runs []*RunHealth // completed and active runs, in BeginRun order

	// Registry handles (nil when no registry is attached).
	alertCtr   *obs.Counter
	faultCtr   *obs.Counter
	epochCtr   *obs.Counter
	runCtr     *obs.Counter
	powerG     *obs.Gauge
	budgetG    *obs.Gauge
	overshootG *obs.Gauge
	ipsG       *obs.Gauge
	decideP99G *obs.Gauge
}

// New builds a monitor.
func New(opt Options) *Monitor {
	m := &Monitor{
		opt:      opt,
		timeline: NewTimeline(DefaultTimelineCap),
		live:     newLiveHub(),
	}
	if r := opt.Registry; r != nil {
		m.alertCtr = r.Counter("monitor.alerts_fired")
		m.faultCtr = r.Counter("monitor.faults_seen")
		m.epochCtr = r.Counter("monitor.epochs")
		m.runCtr = r.Counter("monitor.runs")
		m.powerG = r.Gauge("monitor.power_w")
		m.budgetG = r.Gauge("monitor.budget_w")
		m.overshootG = r.Gauge("monitor.overshoot_w")
		m.ipsG = r.Gauge("monitor.ips")
		m.decideP99G = r.Gauge("monitor.decide_p99_ns")
	}
	return m
}

// Timeline returns the monitor's phase-span timeline (the obs.SpanSink the
// harness attaches to span-streaming controllers).
func (m *Monitor) Timeline() *Timeline { return m.timeline }

// RunHealth is one run's health record.
type RunHealth struct {
	ID   int
	Meta obs.RunMeta
	// Epochs and Faults count observed measurement epochs and injected
	// faults; AlertCount counts fired alerts (Alerts keeps the first
	// maxKeptAlerts of them).
	Epochs     int
	Faults     int
	AlertCount int
	Alerts     []obs.AlertEvent
	// Decide and Overshoot are the run's streaming sketches (decide
	// latency in ns, per-epoch overshoot in W).
	Decide    *Sketch
	Overshoot *Sketch
	// Store holds the run's bounded time series.
	Store *Store
	// Done marks the run ended.
	Done bool
}

// Wrap tees the monitor with next (commonly the JSONL tracer): each run's
// events reach next's run first and the monitor last, and the monitor hands
// its alerts to next's run, so an alert follows the epoch it names. next
// may be nil.
func (m *Monitor) Wrap(next obs.Observer) obs.Observer {
	if next == nil {
		return m
	}
	return wrapped{m: m, target: next}
}

// wrapped is the Wrap product; the tee it builds per run forwards events.
type wrapped struct {
	m      *Monitor
	target obs.Observer // its runs take the monitor's alerts
}

func (w wrapped) BeginRun(meta obs.RunMeta) obs.RunObserver {
	run := w.target.BeginRun(meta)
	alertTo, _ := run.(obs.AlertObserver)
	return obs.TeeRuns(run, w.m.beginRun(meta, alertTo))
}

// BeginRun implements obs.Observer (a bare monitor whose alerts go nowhere
// but its own records).
func (m *Monitor) BeginRun(meta obs.RunMeta) obs.RunObserver {
	return m.beginRun(meta, nil)
}

func (m *Monitor) beginRun(meta obs.RunMeta, alertTo obs.AlertObserver) *monitorRun {
	rules := m.opt.Rules
	if len(rules) == 0 {
		rules = DefaultRules(meta.BudgetW, meta.EpochS)
	}
	eng, err := newEngine(rules)
	if err != nil {
		// Rules were validated at load time; an invalid set here is a
		// programming error — fall back to the derived defaults rather
		// than silently un-monitoring the run.
		eng, _ = newEngine(DefaultRules(meta.BudgetW, meta.EpochS))
	}
	h := &RunHealth{
		Meta:      meta,
		Decide:    NewSketch(),
		Overshoot: NewSketch(),
		Store:     NewStore(DefaultSeriesCap),
	}
	m.mu.Lock()
	h.ID = len(m.runs) + 1
	m.runs = append(m.runs, h)
	m.mu.Unlock()
	if m.runCtr != nil {
		m.runCtr.Inc()
	}
	return &monitorRun{m: m, h: h, alertTo: alertTo, eng: eng}
}

// Runs snapshots the per-run health records (shallow copies: sketches and
// stores are shared, so callers must treat them as read-only once the run
// is done).
func (m *Monitor) Runs() []RunHealth {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]RunHealth, len(m.runs))
	for i, h := range m.runs {
		out[i] = *h
	}
	return out
}

// AlertsFired returns the total alert count across all runs.
func (m *Monitor) AlertsFired() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, h := range m.runs {
		n += h.AlertCount
	}
	return n
}

// WriteAlertSummary renders the end-of-run health table: one row per run
// with decide-latency and overshoot quantiles and the fired-alert count,
// then one row per fired alert. Writes nothing when no runs were observed.
func (m *Monitor) WriteAlertSummary(w io.Writer) error {
	runs := m.Runs()
	if len(runs) == 0 {
		return nil
	}
	rows := [][]string{{
		"run", "controller", "epochs", "faults", "alerts",
		"decide p50(us)", "p95(us)", "p99(us)", "max(us)", "overshoot p99(W)",
	}}
	for _, h := range runs {
		rows = append(rows, []string{
			fmt.Sprintf("%d", h.ID),
			h.Meta.Controller,
			fmt.Sprintf("%d", h.Epochs),
			fmt.Sprintf("%d", h.Faults),
			fmt.Sprintf("%d", h.AlertCount),
			fmt.Sprintf("%.1f", h.Decide.Quantile(0.5)/1e3),
			fmt.Sprintf("%.1f", h.Decide.Quantile(0.95)/1e3),
			fmt.Sprintf("%.1f", h.Decide.Quantile(0.99)/1e3),
			fmt.Sprintf("%.1f", h.Decide.Max()/1e3),
			fmt.Sprintf("%.3f", h.Overshoot.Quantile(0.99)),
		})
	}
	if _, err := fmt.Fprintln(w, "\nrun-health summary:"); err != nil {
		return err
	}
	if err := writeAligned(w, rows); err != nil {
		return err
	}
	fired := false
	for _, h := range runs {
		for _, a := range h.Alerts {
			if !fired {
				if _, err := fmt.Fprintln(w, "\nfired alerts:"); err != nil {
					return err
				}
				fired = true
			}
			if _, err := fmt.Fprintf(w, "  run %d (%s) epoch %d t=%.3fs: %s — %s %s %g (value %.4g, held %d epochs)\n",
				h.ID, h.Meta.Controller, a.Epoch, a.TimeS, a.Rule, a.Metric, a.Op, a.Threshold, a.Value, a.ForEpochs); err != nil {
				return err
			}
		}
		if h.AlertCount > len(h.Alerts) {
			if _, err := fmt.Fprintf(w, "  run %d: … %d more alerts not retained\n", h.ID, h.AlertCount-len(h.Alerts)); err != nil {
				return err
			}
		}
	}
	if !fired {
		if _, err := fmt.Fprintln(w, "no alerts fired"); err != nil {
			return err
		}
	}
	return nil
}

// writeAligned pads each column to its widest cell (the sim table idiom,
// duplicated here so obs/monitor does not depend on internal/sim).
func writeAligned(w io.Writer, rows [][]string) error {
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	for _, row := range rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		b.WriteString("\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// monitorRun consumes one run's stream. It samples every epoch, so it is
// the one layer that produces events (alerts) from the stream.
type monitorRun struct {
	m       *Monitor
	h       *RunHealth
	alertTo obs.AlertObserver // nil when nothing downstream takes alerts
	eng     *engine

	frame        [nFrameMetrics]float64
	faults       int
	emaIPS       float64
	peakIPS      float64
	emaOvershoot float64
	p99Ns        float64
	epochs       int
}

// ShouldSample implements obs.RunObserver: the monitor samples every
// epoch.
func (r *monitorRun) ShouldSample(int) bool { return true }

// WantsEpochDetail implements obs.EpochDetailSampler: the monitor reads
// only scalar fields.
func (r *monitorRun) WantsEpochDetail(int) bool { return false }

// ObserveEpoch implements obs.RunObserver. Allocation-free on the steady
// path: series, sketches and the metric frame are all preallocated.
//
//odrl:hotpath
func (r *monitorRun) ObserveEpoch(ev *obs.EpochEvent) {
	r.epochs++

	// Raw frame slots, in storeMetrics order.
	r.frame[0] = ev.PowerW
	r.frame[1] = ev.BudgetW
	r.frame[2] = ev.IPS
	r.frame[3] = ev.OvershootW
	r.frame[4] = float64(ev.DecideNs)
	r.frame[5] = float64(r.faults)
	r.frame[6] = ev.MaxTempK

	r.h.Decide.Observe(float64(ev.DecideNs))
	r.h.Overshoot.Observe(ev.OvershootW)

	// Derived slots.
	overshootFrac := 0.0
	if ev.BudgetW > 0 {
		overshootFrac = ev.OvershootW / ev.BudgetW
	}
	if r.epochs == 1 {
		r.emaIPS = ev.IPS
		r.emaOvershoot = overshootFrac
	} else {
		r.emaIPS = ipsEMAAlpha*ev.IPS + (1-ipsEMAAlpha)*r.emaIPS
		r.emaOvershoot = overshootEMAAlpha*overshootFrac + (1-overshootEMAAlpha)*r.emaOvershoot
	}
	if r.emaIPS > r.peakIPS {
		r.peakIPS = r.emaIPS
	}
	ipsVsPeak := 1.0
	if r.peakIPS > 0 {
		ipsVsPeak = r.emaIPS / r.peakIPS
	}
	if r.epochs%p99RefreshEpochs == 1 {
		r.p99Ns = r.h.Decide.Quantile(0.99)
		if g := r.m.decideP99G; g != nil {
			g.Set(r.p99Ns)
		}
	}
	r.frame[len(storeMetrics)] = overshootFrac
	r.frame[len(storeMetrics)+1] = r.emaOvershoot
	r.frame[len(storeMetrics)+2] = ipsVsPeak
	r.frame[len(storeMetrics)+3] = r.p99Ns
	// learn.* slots: zero unless the run carries learning introspection
	// (the event fields are filled by obs/learn), so learn rules never fire
	// on unintrospected runs.
	r.frame[len(storeMetrics)+4] = ev.LearnTDEMA
	r.frame[len(storeMetrics)+5] = ev.LearnChurn
	r.frame[len(storeMetrics)+6] = ev.LearnConvergedFrac
	r.frame[len(storeMetrics)+7] = ev.LearnEpsilon

	r.h.Store.Append((*[len(storeMetrics)]float64)(r.frame[:len(storeMetrics)]))
	r.eng.eval(&r.frame, ev.Epoch, ev.TimeS, r.fire)

	if m := r.m; m.epochCtr != nil {
		m.epochCtr.Inc()
		m.powerG.Set(ev.PowerW)
		m.budgetG.Set(ev.BudgetW)
		m.overshootG.Set(ev.OvershootW)
		m.ipsG.Set(ev.IPS)
	}
	r.m.live.publish(r.h.ID, r.h.Meta.Controller, ev)
}

// fire records one fired alert and hands it to the run's alert target.
// RunHealth scalar fields are guarded by the monitor lock so Runs() stays
// race-free against active runs; firing is rare, so the lock never sits on
// the steady per-epoch path.
func (r *monitorRun) fire(ev *obs.AlertEvent) {
	r.m.mu.Lock()
	r.h.AlertCount++
	if len(r.h.Alerts) < maxKeptAlerts {
		r.h.Alerts = append(r.h.Alerts, *ev)
	}
	r.m.mu.Unlock()
	if r.m.alertCtr != nil {
		r.m.alertCtr.Inc()
	}
	if r.alertTo != nil {
		r.alertTo.ObserveAlert(ev)
	}
	r.m.live.publishAlert(r.h.ID, r.h.Meta.Controller, ev)
}

// ObserveFault implements obs.FaultObserver.
func (r *monitorRun) ObserveFault(*obs.FaultEvent) {
	r.faults++
	r.m.mu.Lock()
	r.h.Faults++
	r.m.mu.Unlock()
	if r.m.faultCtr != nil {
		r.m.faultCtr.Inc()
	}
}

// End implements obs.RunObserver.
func (r *monitorRun) End(metrics.Summary) {
	r.m.mu.Lock()
	r.h.Epochs = r.epochs
	r.h.Done = true
	r.m.mu.Unlock()
}
