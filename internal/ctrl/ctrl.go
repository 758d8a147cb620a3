// Package ctrl defines the control-plane contract shared by the OD-RL
// controller (package core) and all baseline power managers (package
// baselines), plus the telemetry-based power/performance predictor the
// prediction-based baselines rely on.
//
// A Controller sees exactly what the hardware exposes — the previous
// epoch's telemetry and the chip power budget — and emits a VF level per
// core. Controllers also declare their NoC traffic pattern so experiments
// can charge communication costs (claim C4 in DESIGN.md).
package ctrl

import (
	"fmt"

	"repro/internal/manycore"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/vf"
)

// Controller is one power-management policy.
type Controller interface {
	// Name identifies the controller in tables and traces.
	Name() string
	// Decide consumes the last epoch's telemetry and the chip budget in
	// watts, and writes the next VF level for every core into out
	// (len(out) == len(tel.Cores)). Implementations must not retain tel.
	Decide(tel *manycore.Telemetry, budgetW float64, out []int)
	// CommPerEpoch returns the controller's average per-control-epoch NoC
	// communication cost on the given mesh (telemetry gather, command
	// scatter, or neighbour exchange, amortised over its cadence).
	CommPerEpoch(m *noc.Mesh) noc.Cost
}

// PhaseProfiler is optionally implemented by controllers that time their
// decision phases (see obs.PhaseLocal et al.). The harness resets the
// profile at the warmup/measurement boundary so phase totals split the
// same window CtrlTimeS covers, and copies the totals into the run
// summary's phase-time fields.
type PhaseProfiler interface {
	// PhaseTimes returns the accumulated per-phase wall-clock profile.
	PhaseTimes() []obs.PhaseTime
	// ResetPhaseTimes zeroes the profile.
	ResetPhaseTimes()
}

// WorkCounter is optionally implemented by controllers that count the
// nominal work of the algorithm they reproduce. One unit is one candidate
// value the published algorithm evaluates: a knapsack cell for MaxBIPS, a
// Q-value an OD-RL agent chooses from. The count follows from the inputs
// alone, not from the host or from shortcuts an implementation takes, so
// claim C4 compares controllers on it rather than on wall clock.
type WorkCounter interface {
	// NominalWork returns the work counted since construction.
	NominalWork() uint64
}

// SpanStreamer is optionally implemented by controllers that can stream
// their phase spans (start + duration) to an obs.SpanSink as they happen,
// on top of the aggregate totals PhaseProfiler reports. The harness
// attaches the session's span ring (sim.Stack.SpanSink) here and detaches
// it (nil) when the run ends; implementations must treat a nil sink as
// "off".
type SpanStreamer interface {
	// SetSpanSink installs (or, with nil, removes) the span sink.
	SetSpanSink(s obs.SpanSink)
}

// LearnStreamer is optionally implemented by learning controllers that can
// stream per-agent learning samples (TD error, exploration rate, policy
// churn — see obs.LearnCoreSample) to an obs.LearnSink after each decision.
// The harness attaches the learning-introspection layer here and detaches
// it (nil) when the run ends; implementations must treat a nil sink as
// "off" and must keep decisions bit-identical either way.
type LearnStreamer interface {
	// SetLearnSink installs (or, with nil, removes) the learn sink.
	SetLearnSink(s obs.LearnSink)
}

// PolicySnapshotter is optionally implemented by controllers whose policy
// is an exportable dense table, enabling the content-addressed policy
// snapshots the learning-introspection layer writes. CopyPolicy must be a
// pure read: cores·states·actions float64 values in core-major order.
type PolicySnapshotter interface {
	// PolicyShape returns the policy tensor's dimensions.
	PolicyShape() (cores, states, actions int)
	// CopyPolicy copies the policy into dst, which must hold exactly
	// cores·states·actions values.
	CopyPolicy(dst []float64) error
}

// Predictor turns one core's observed telemetry into power and performance
// estimates at other VF levels, exactly the model a MaxBIPS-class manager
// builds from performance counters. Its error on abrupt phase changes —
// the telemetry describes the previous phase, not the next — is the
// fundamental source of budget overshoot for prediction-based control.
// Build one with NewPredictor, which builds the power.LUT over the VF
// table's voltages that leakage is read from.
type Predictor struct {
	VF    *vf.Table
	Power power.Params
	leak  *power.LUT
}

// NewPredictor builds a predictor; both fields are required.
func NewPredictor(table *vf.Table, p power.Params) (Predictor, error) {
	if table == nil {
		return Predictor{}, fmt.Errorf("ctrl: nil VF table")
	}
	if err := p.Validate(); err != nil {
		return Predictor{}, err
	}
	return Predictor{VF: table, Power: p, leak: power.NewLUT(p, table.VoltagesV())}, nil
}

// PowerAt estimates the core's power if moved to the given level, holding
// its current phase. The observed power is split into a model-computed
// leakage part and a residual dynamic part; dynamic scales with V²f,
// leakage with the leakage model at the new voltage. Leakage comes from
// the LUT, bit-equal to power.Params.LeakageW at both voltages, so the
// only transcendental call is the core's one temperature factor.
func (p Predictor) PowerAt(ct manycore.CoreTelemetry, level int) float64 {
	factor, dynW := p.split(ct)
	return p.scaleTo(ct.Level, level, factor, dynW)
}

// PowerLevels writes PowerAt(ct, l) into dst[l] for every l < len(dst),
// bit-equal to calling PowerAt per level, from one temperature factor.
func (p Predictor) PowerLevels(ct manycore.CoreTelemetry, dst []float64) {
	factor, dynW := p.split(ct)
	for l := range dst {
		dst[l] = p.scaleTo(ct.Level, l, factor, dynW)
	}
}

// split returns the core's leakage temperature factor and the dynamic
// residual of its observed power: the reading less model leakage at the
// current level, clamped at zero.
func (p Predictor) split(ct manycore.CoreTelemetry) (factor, dynW float64) {
	tempK := ct.TempK
	if !(tempK > 0) { // negated comparison also catches NaN sensor readings
		tempK = 300
	}
	factor = p.leak.TempFactor(tempK)
	dynW = ct.PowerW - p.leak.LeakageWFrom(ct.Level, factor)
	if !(dynW > 0) {
		dynW = 0
	}
	return factor, dynW
}

// scaleTo finishes the prediction at level from split's results: dynamic
// power scaled by the levels' V²f ratio plus leakage at the new voltage.
func (p Predictor) scaleTo(from, level int, factor, dynW float64) float64 {
	cur := p.VF.Point(from)
	next := p.VF.Point(level)
	scale := (next.VoltageV * next.VoltageV * next.FreqHz) /
		(cur.VoltageV * cur.VoltageV * cur.FreqHz)
	return dynW*scale + p.leak.LeakageWFrom(level, factor)
}

// IPSAt estimates the core's instruction throughput at the given level,
// holding its current phase, using the observed memory-boundedness as an
// Amdahl-style correction: the memory-stall fraction of time does not
// shrink when the clock speeds up.
func (p Predictor) IPSAt(ct manycore.CoreTelemetry, level int) float64 {
	cur := p.VF.Point(ct.Level)
	next := p.VF.Point(level)
	mb := ct.MemBoundedness
	if !(mb > 0) { // negated comparison also catches NaN sensor readings
		mb = 0
	} else if mb > 1 {
		mb = 1
	}
	ips := ct.IPS
	if !(ips >= 0) {
		ips = 0
	}
	// Time per instruction splits into a core part (scales 1/f) and a
	// memory part (constant): t(f') = t(f)·((1−mb)·f/f' + mb).
	denom := (1-mb)*cur.FreqHz/next.FreqHz + mb
	if denom <= 0 {
		return 0
	}
	return ips / denom
}
