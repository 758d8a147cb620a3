package obs

// This file defines the learning-introspection event vocabulary: the
// per-core sample stream a learning controller pushes into a LearnSink
// every epoch, and the aggregated JSONL events (learn, converged) the trace
// layer emits. The collector that turns samples into events lives in
// internal/obs/learn; the types sit here so the controller contract
// (internal/ctrl) and the tracer share them without importing the
// collector.

// LearnCoreSample is one core's learning state over an emit window of one
// or more control epochs, filled by the controller from its agent's
// introspection probe. The slice handed to a LearnSink is reused between
// emits and must not be retained.
type LearnCoreSample struct {
	// TDError is the raw temporal-difference error δ of the window's latest
	// update.
	TDError float64
	// Epsilon is the agent's current exploration parameter.
	Epsilon float64
	// QSpread is max−min over the most recently updated state's action
	// values.
	QSpread float64
	// GreedyChanged reports whether any update in the window flipped an
	// updated state's greedy action. The flip count is exact — the agent
	// tracks it per step even when the controller emits on a stride.
	GreedyChanged bool
	// ActedGreedy reports whether the latest action was the greedy one.
	ActedGreedy bool
	// VisitedStates and States give the agent's visit-count coverage.
	VisitedStates int
	States        int
	// Epochs is the number of control epochs this sample covers; zero is
	// read as one so per-epoch producers need not set it.
	Epochs int
	// Dead marks a core outside the control domain; its other fields are
	// zero and it is excluded from aggregates.
	Dead bool
}

// LearnSink consumes the per-core learning sample stream. ObserveLearnEpoch
// is called from the harness's sequential loop (the controller's Decide) —
// once per control epoch, or once per stride when the sink is a
// LearnStrider — so implementations see samples in epoch order on one
// goroutine; they still guard shared state against concurrent HTTP readers.
type LearnSink interface {
	ObserveLearnEpoch(samples []LearnCoreSample)
}

// LearnStrider is optionally implemented by LearnSinks that want samples on
// a stride rather than every control epoch: the controller then batches
// LearnEmitEvery epochs per ObserveLearnEpoch call (flushing any partial
// window when the sink detaches), which keeps introspection overhead off
// the per-epoch hot path. Flip counts stay exact across the window.
type LearnStrider interface {
	LearnEmitEvery() int
}

// LearnEvent is one sampled epoch's chip-level learning telemetry. Epoch
// counts from zero at the start of the measurement window, like EpochEvent.
// It rides its epoch's EpochEvent (the Learn field) on the epochs some
// observer takes detail for.
type LearnEvent struct {
	Epoch int     `json:"epoch"`
	TimeS float64 `json:"time_s"`
	// TDErrEMA is the smoothed mean |δ| across live agents; TDErrP99 the
	// streaming 99th percentile of per-step |δ|.
	TDErrEMA float64 `json:"td_ema"`
	TDErrP99 float64 `json:"td_p99"`
	// Epsilon is the mean exploration parameter across live agents.
	Epsilon float64 `json:"epsilon"`
	// Churn is the smoothed fraction of agents whose greedy action flipped
	// this epoch; GreedyFrac the smoothed fraction that acted greedily.
	Churn      float64 `json:"churn"`
	GreedyFrac float64 `json:"greedy_frac"`
	// Coverage is mean visited-states/states; QSpread the smoothed mean
	// action-value spread of updated states.
	Coverage float64 `json:"coverage"`
	QSpread  float64 `json:"q_spread"`
	// ConvergedFrac is the fraction of live agents the online detector has
	// declared converged.
	ConvergedFrac float64 `json:"converged_frac"`
	// IslandTDEMA is the per-island smoothed |δ|.
	IslandTDEMA []float64 `json:"island_td_ema,omitempty"`
}

// ConvergedEvent marks one agent crossing the convergence detector's
// criterion (greedy policy stable for K epochs and TD-error EMA below
// threshold). Epoch counts from zero at the start of the measurement window
// and is negative for convergence during warmup; EpochsToConverge counts
// learning epochs from the controller's first decision, the
// epochs-to-convergence metric of the transfer-learning literature.
type ConvergedEvent struct {
	Epoch int     `json:"epoch"`
	TimeS float64 `json:"time_s"`
	Core  int     `json:"core"`
	// EpochsToConverge is the agent's learning-epoch count at the moment the
	// detector fired.
	EpochsToConverge int `json:"epochs_to_converge"`
	// TDErrEMA and Epsilon record the agent's state at convergence.
	TDErrEMA float64 `json:"td_ema"`
	Epsilon  float64 `json:"epsilon"`
}

// ConvergedObserver is optionally implemented by RunObservers that want
// the run's converged events. They are rare and delivered unconditionally,
// like faults.
type ConvergedObserver interface {
	ObserveConverged(ev *ConvergedEvent)
}
