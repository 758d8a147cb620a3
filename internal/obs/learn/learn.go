// Package learn is the learning-introspection layer on top of package obs:
// streaming per-agent telemetry (TD-error magnitude, exploration rate,
// greedy-policy churn, Q-value spread, visit-count coverage) aggregated per
// island and chip, an online convergence detector emitting `converged`
// trace events, periodic content-addressed policy snapshots, and a
// /debug/learn read surface. It consumes the obs.LearnSink sample stream a
// learning controller exposes through ctrl.LearnStreamer and never
// influences it: decision streams are bit-identical with the layer on or
// off (proven by the golden-table tests in internal/experiments).
package learn

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/obs/monitor"
)

// Detector parameterises the online convergence criterion: an agent is
// declared converged once its greedy policy has not flipped for
// StableEpochs consecutive epochs AND its TD-error magnitude EMA sits at or
// below TDThreshold. Zero fields take defaults.
type Detector struct {
	// StableEpochs is the greedy-stability window K.
	StableEpochs int
	// TDThreshold is the |δ| EMA ceiling.
	TDThreshold float64
	// EMAAlpha smooths the per-agent |δ| EMA the criterion tests.
	EMAAlpha float64
}

// DefaultDetector returns the detector used when fields are zero: the
// stability window covers many global-reallocation periods so budget
// shuffles cannot fake convergence, and the threshold is small against the
// reward scale (normalised throughput ≤ 1).
func DefaultDetector() Detector {
	return Detector{StableEpochs: 200, TDThreshold: 0.02, EMAAlpha: 0.05}
}

func (d Detector) withDefaults() Detector {
	def := DefaultDetector()
	if d.StableEpochs == 0 {
		d.StableEpochs = def.StableEpochs
	}
	if d.TDThreshold == 0 {
		d.TDThreshold = def.TDThreshold
	}
	if d.EMAAlpha == 0 {
		d.EMAAlpha = def.EMAAlpha
	}
	return d
}

// EmitEvery is the controller-side emit stride in control epochs: agents
// track greedy flips exactly every step (O(1) incremental cache
// maintenance), but the aggregation — quantile sketch, EMAs, detector
// bookkeeping — runs once per stride, keeping the layer's epoch-loop
// overhead within the bench-learn budget. Convergence epochs are therefore
// resolved to this granularity.
const EmitEvery = 16

// Options configures a Layer. The controller emit stride is fixed at
// EmitEvery.
type Options struct {
	// Detector tunes the convergence criterion; zero fields take defaults.
	Detector Detector
	// SnapshotEvery is the policy-snapshot cadence in learning epochs. With
	// Artifacts set, N > 0 writes a snapshot every N epochs plus the final
	// policy at run end; 0 writes none.
	SnapshotEvery int
	// Artifacts receives each learning run's files under
	// learn/<n>-<controller>/: learn.json (a Report) at run end and the
	// policy snapshots. Nil records nothing.
	Artifacts func(name string, data []byte)
	// Registry, when set, receives obs.learn.* counters.
	Registry *obs.Registry
}

// Layer owns learning introspection across runs; one Layer may watch many
// (possibly concurrent) runs.
type Layer struct {
	opt    Options
	runIDs atomic.Int64

	runCtr  *obs.Counter
	convCtr *obs.Counter

	mu   sync.Mutex
	runs []*Run
}

// New builds a layer.
func New(opt Options) *Layer {
	opt.Detector = opt.Detector.withDefaults()
	l := &Layer{opt: opt}
	if r := opt.Registry; r != nil {
		l.runCtr = r.Counter("obs.learn.runs")
		l.convCtr = r.Counter("obs.learn.converged")
	}
	return l
}

// BeginRun starts introspection for one run. islandOf maps core index to
// voltage-frequency island (may be nil when island structure is unknown)
// and islands is the island count; the returned Run is the obs.LearnSink to
// attach to the controller.
func (l *Layer) BeginRun(meta obs.RunMeta, islandOf []int32, islands int) *Run {
	r := &Run{
		layer:    l,
		id:       l.runIDs.Add(1),
		meta:     meta,
		det:      l.opt.Detector,
		islandOf: islandOf,
		sketch:   obs.NewSketch(),
		tdSeries: monitor.NewSeries("learn.td_ema", monitor.DefaultSeriesCap),
		chSeries: monitor.NewSeries("learn.churn", monitor.DefaultSeriesCap),
		cvSeries: monitor.NewSeries("learn.converged_frac", monitor.DefaultSeriesCap),
	}
	if islands > 0 && islandOf != nil {
		r.islandEMA = make([]float64, islands)
		r.islandSum = make([]float64, islands)
		r.islandCnt = make([]int, islands)
	}
	if l.opt.Artifacts != nil {
		r.rec = &recorder{
			sink:   l.opt.Artifacts,
			prefix: fmt.Sprintf("learn/%d-%s/", r.id, sanitize(meta.Controller)),
			every:  l.opt.SnapshotEvery,
		}
	}
	if l.runCtr != nil {
		l.runCtr.Inc()
	}
	l.mu.Lock()
	l.runs = append(l.runs, r)
	l.mu.Unlock()
	return r
}

// Runs returns every run the layer has begun, in order.
func (l *Layer) Runs() []*Run {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]*Run(nil), l.runs...)
}

// Run accumulates one run's learning telemetry. Writes arrive from the
// simulation loop (one goroutine); reads may come concurrently from HTTP
// handlers, so all state is mutex-guarded.
type Run struct {
	layer *Layer
	id    int64
	meta  obs.RunMeta
	det   Detector

	mu     sync.Mutex
	epochs int // learning epochs observed (controller decisions)
	live   int // live agents at the last emit

	// Per-agent detector state, lazily sized from the first sample batch.
	tdEMA       []float64
	stableFor   []int
	convergedAt []int // learning epoch of convergence, -1 while learning
	converged   int

	// Chip-level EMAs (det.EMAAlpha) plus latest instantaneous values.
	chipTD     float64
	churn      float64
	greedyFrac float64
	qSpread    float64
	coverage   float64
	epsilon    float64

	// Streaming |δ| distribution and bounded learning-curve series.
	sketch   *obs.Sketch
	tdSeries *monitor.Series
	chSeries *monitor.Series
	cvSeries *monitor.Series

	// Per-island |δ| EMA; islandSum/islandCnt are per-epoch scratch.
	islandOf  []int32
	islandEMA []float64
	islandSum []float64
	islandCnt []int

	// Convergence events awaiting harness drain. npending lets the per-epoch
	// drain skip the lock when nothing fired (the overwhelmingly common case).
	npending atomic.Int32
	pending  []obs.ConvergedEvent
	drainBuf []obs.ConvergedEvent

	rec          *recorder // nil without an artifact sink
	lastSnapshot int       // learning epoch of the last periodic snapshot
	done         bool
}

// LearnEmitEvery implements obs.LearnStrider: the controller batches
// EmitEvery control epochs per ObserveLearnEpoch call.
func (r *Run) LearnEmitEvery() int { return EmitEvery }

// ObserveLearnEpoch implements obs.LearnSink.
//
//odrl:hotpath
func (r *Run) ObserveLearnEpoch(samples []obs.LearnCoreSample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return
	}
	if r.tdEMA == nil {
		n := len(samples)
		r.tdEMA = make([]float64, n)
		r.stableFor = make([]int, n)
		r.convergedAt = make([]int, n)
		for i := range r.convergedAt {
			r.convergedAt[i] = -1
		}
	}
	// adv is the emit window in control epochs: per-epoch producers leave
	// Epochs at zero (read as one); strided controllers batch several.
	adv := 1
	for i := range samples {
		if e := samples[i].Epochs; e > adv {
			adv = e
		}
	}
	first := r.epochs == 0
	r.epochs += adv
	a := r.det.EMAAlpha

	for i := range r.islandSum {
		r.islandSum[i] = 0
		r.islandCnt[i] = 0
	}

	var (
		live                     int
		sumTD, sumEps, sumSpread float64
		sumCover                 float64
		nChurn, nGreedy          int
	)
	for i := range samples {
		s := &samples[i]
		if s.Dead {
			continue
		}
		live++
		absTD := math.Abs(s.TDError)
		sumTD += absTD
		sumEps += s.Epsilon
		sumSpread += s.QSpread
		if s.States > 0 {
			sumCover += float64(s.VisitedStates) / float64(s.States)
		}
		if s.GreedyChanged {
			nChurn++
		}
		if s.ActedGreedy {
			nGreedy++
		}
		r.sketch.Observe(absTD)

		// Per-agent convergence detector. A window with any greedy flip
		// resets the stability clock (flip counts are exact even on a
		// stride); a clean window extends it by the window's epochs.
		if first {
			r.tdEMA[i] = absTD
		} else {
			r.tdEMA[i] = a*absTD + (1-a)*r.tdEMA[i]
		}
		if s.GreedyChanged {
			r.stableFor[i] = 0
		} else {
			r.stableFor[i] += adv
		}
		if r.convergedAt[i] < 0 && r.stableFor[i] >= r.det.StableEpochs && r.tdEMA[i] <= r.det.TDThreshold {
			r.convergedAt[i] = r.epochs
			r.converged++
			if c := r.layer.convCtr; c != nil {
				c.Inc()
			}
			r.pending = append(r.pending, obs.ConvergedEvent{
				Core:             i,
				EpochsToConverge: r.epochs,
				TDErrEMA:         r.tdEMA[i],
				Epsilon:          s.Epsilon,
			})
			r.npending.Store(int32(len(r.pending)))
		}

		if r.islandEMA != nil && i < len(r.islandOf) {
			isl := int(r.islandOf[i])
			if isl >= 0 && isl < len(r.islandSum) {
				r.islandSum[isl] += absTD
				r.islandCnt[isl]++
			}
		}
	}
	r.live = live
	if live == 0 {
		return
	}

	instTD := sumTD / float64(live)
	instChurn := float64(nChurn) / float64(live)
	instGreedy := float64(nGreedy) / float64(live)
	instSpread := sumSpread / float64(live)
	if first {
		r.chipTD, r.churn, r.greedyFrac, r.qSpread = instTD, instChurn, instGreedy, instSpread
	} else {
		r.chipTD = a*instTD + (1-a)*r.chipTD
		r.churn = a*instChurn + (1-a)*r.churn
		r.greedyFrac = a*instGreedy + (1-a)*r.greedyFrac
		r.qSpread = a*instSpread + (1-a)*r.qSpread
	}
	r.coverage = sumCover / float64(live)
	r.epsilon = sumEps / float64(live)

	for i := range r.islandEMA {
		if r.islandCnt[i] == 0 {
			continue
		}
		inst := r.islandSum[i] / float64(r.islandCnt[i])
		if first {
			r.islandEMA[i] = inst
		} else {
			r.islandEMA[i] = a*inst + (1-a)*r.islandEMA[i]
		}
	}

	r.tdSeries.Append(r.chipTD)
	r.chSeries.Append(r.churn)
	r.cvSeries.Append(r.convergedFracLocked())
}

// convergedFracLocked is the converged share of live agents; callers hold mu.
func (r *Run) convergedFracLocked() float64 {
	if r.live == 0 {
		return 0
	}
	return float64(r.converged) / float64(r.live)
}

// FillEvent mirrors the layer's headline metrics into a sampled epoch event
// (the monitor's frame store and alert rules read them from there), which
// stay at their omitempty zeros before the first learning epoch, and fills
// ev.Learn when it is set. ev.Learn.IslandTDEMA aliases internal storage:
// observers consume the event before the next epoch, synchronously.
//
//odrl:hotpath
func (r *Run) FillEvent(ev *obs.EpochEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if le := ev.Learn; le != nil {
		le.TDErrEMA = r.chipTD
		le.TDErrP99 = r.sketch.Quantile(0.99)
		le.Epsilon = r.epsilon
		le.Churn = r.churn
		le.GreedyFrac = r.greedyFrac
		le.Coverage = r.coverage
		le.QSpread = r.qSpread
		le.ConvergedFrac = r.convergedFracLocked()
		le.IslandTDEMA = r.islandEMA
	}
	if r.epochs == 0 {
		return
	}
	ev.LearnTDEMA = r.chipTD
	ev.LearnChurn = r.churn
	ev.LearnConvergedFrac = r.convergedFracLocked()
	ev.LearnEpsilon = r.epsilon
}

// DrainConverged hands any convergence events fired since the last drain to
// fn, in firing order. The caller stamps Epoch/TimeS before forwarding. The
// no-event fast path is one atomic load.
func (r *Run) DrainConverged(fn func(*obs.ConvergedEvent)) {
	if r.npending.Load() == 0 {
		return
	}
	r.mu.Lock()
	r.drainBuf = append(r.drainBuf[:0], r.pending...)
	r.pending = r.pending[:0]
	r.npending.Store(0)
	r.mu.Unlock()
	for i := range r.drainBuf {
		fn(&r.drainBuf[i])
	}
	if r.rec != nil {
		r.rec.convLog = append(r.rec.convLog, r.drainBuf...)
	}
}

// PolicySource is the dense-policy read contract snapshots draw from;
// ctrl.PolicySnapshotter satisfies it.
type PolicySource interface {
	PolicyShape() (cores, states, actions int)
	CopyPolicy(dst []float64) error
}

// MaybeSnapshot writes a policy snapshot when snapshots are on, the
// learning-epoch counter has crossed a cadence boundary since the last
// periodic snapshot, and src exports a tabular policy. Crossing
// (rather than exact divisibility) keeps the cadence honest when the
// controller emits epochs in strided batches. Errors are sticky and
// reported by Err. Snapshots are keyed by learning epoch, so the run's
// simulated time goes unused.
func (r *Run) MaybeSnapshot(_ float64, src PolicySource) {
	if r.rec == nil || r.rec.every == 0 || src == nil {
		return
	}
	r.mu.Lock()
	every, epochs := r.rec.every, r.epochs
	due := epochs > 0 && epochs/every > r.lastSnapshot/every
	if due {
		r.lastSnapshot = epochs
	}
	r.mu.Unlock()
	if !due {
		return
	}
	r.rec.write(epochs, src)
}

// Finish marks the run done. With a sink it writes the final policy
// snapshot (when snapshots are on) and then learn.json. Like MaybeSnapshot
// it ignores the simulated time.
func (r *Run) Finish(_ float64, src PolicySource) {
	r.mu.Lock()
	if r.done {
		r.mu.Unlock()
		return
	}
	r.done = true
	epochs := r.epochs
	r.mu.Unlock()
	if r.rec == nil {
		return
	}
	if r.rec.every > 0 && src != nil && epochs > 0 {
		r.rec.write(epochs, src)
		r.rec.close()
	}
	r.rec.report(Report{Summary: r.Summarize(true), Converged: r.rec.convLog})
}

// Err returns the first artifact error: a failed snapshot or an
// unencodable report. Nil when the run records nothing or is healthy.
func (r *Run) Err() error {
	if r.rec == nil {
		return nil
	}
	return r.rec.err()
}

// Report is a finished learning run as learn.json holds it: the run's
// summary with its learning curves, and every agent convergence in firing
// order, stamped with its measurement epoch.
type Report struct {
	Summary   Summary              `json:"summary"`
	Converged []obs.ConvergedEvent `json:"converged,omitempty"`
}

// Summary is a point-in-time copy of one run's learning state for the
// /debug/learn surface and end-of-run reports.
type Summary struct {
	Run           int64       `json:"run"`
	Meta          obs.RunMeta `json:"meta"`
	Epochs        int         `json:"epochs"`
	LiveAgents    int         `json:"live_agents"`
	Converged     int         `json:"converged"`
	ConvergedFrac float64     `json:"converged_frac"`
	// EpochsToConvergeP50 is the median epochs-to-convergence over converged
	// agents (0 when none).
	EpochsToConvergeP50 int       `json:"epochs_to_converge_p50"`
	TDErrEMA            float64   `json:"td_ema"`
	TDErrP99            float64   `json:"td_p99"`
	Churn               float64   `json:"churn"`
	GreedyFrac          float64   `json:"greedy_frac"`
	Coverage            float64   `json:"coverage"`
	Epsilon             float64   `json:"epsilon"`
	QSpread             float64   `json:"q_spread"`
	IslandTDEMA         []float64 `json:"island_td_ema,omitempty"`
	Done                bool      `json:"done"`

	// Curves are the bounded learning-curve series (td_ema, churn,
	// converged_frac).
	Curves []monitor.SeriesSnapshot `json:"curves,omitempty"`
}

// Summarize copies the run's current state. withCurves attaches the series
// snapshots (the HTTP surface wants them; table writers don't).
func (r *Run) Summarize(withCurves bool) Summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Summary{
		Run:           r.id,
		Meta:          r.meta,
		Epochs:        r.epochs,
		LiveAgents:    r.live,
		Converged:     r.converged,
		ConvergedFrac: r.convergedFracLocked(),
		TDErrEMA:      r.chipTD,
		TDErrP99:      r.sketch.Quantile(0.99),
		Churn:         r.churn,
		GreedyFrac:    r.greedyFrac,
		Coverage:      r.coverage,
		Epsilon:       r.epsilon,
		QSpread:       r.qSpread,
		Done:          r.done,
	}
	s.EpochsToConvergeP50 = medianConverged(r.convergedAt)
	if r.islandEMA != nil {
		s.IslandTDEMA = append([]float64(nil), r.islandEMA...)
	}
	if withCurves {
		s.Curves = []monitor.SeriesSnapshot{
			r.tdSeries.Snapshot(), r.chSeries.Snapshot(), r.cvSeries.Snapshot(),
		}
	}
	return s
}

// ConvergedEpochs returns each agent's epochs-to-convergence, -1 for agents
// still learning; nil before the first epoch.
func (r *Run) ConvergedEpochs() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]int(nil), r.convergedAt...)
}

// medianConverged is the median of the non-negative entries (0 when none).
func medianConverged(at []int) int {
	var conv []int
	for _, e := range at {
		if e >= 0 {
			conv = append(conv, e)
		}
	}
	if len(conv) == 0 {
		return 0
	}
	// Insertion sort: convergence sets are small (one entry per core).
	for i := 1; i < len(conv); i++ {
		for j := i; j > 0 && conv[j] < conv[j-1]; j-- {
			conv[j], conv[j-1] = conv[j-1], conv[j]
		}
	}
	return conv[len(conv)/2]
}

// DebugHandler serves the layer's run summaries as JSON.
func DebugHandler(l *Layer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		runs := l.Runs()
		out := make([]Summary, len(runs))
		for i, r := range runs {
			out[i] = r.Summarize(true)
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct { //nolint:errcheck // best-effort HTTP response
			Runs []Summary `json:"runs"`
		}{Runs: out})
	})
}
