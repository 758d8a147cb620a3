// Package scenario is the declarative experiment engine: a typed,
// JSON-loadable Spec describing one scenario (platform preset × workload ×
// fault plan × controller set × sweep axes × alert rules), an Engine that
// interprets specs through the existing sim/experiments execution path into
// the same Table type the canned evaluation emits, and a content-addressed
// result cache keyed by the canonical spec hash so repeated runs are free.
//
// Specs are the contract shared by the CLIs (cmd/odrl-run, cmd/odrl-bench)
// and, later, the fleet service: users submit novel scenarios as files
// without touching the repo. Every checked-in experiment has a spec under
// specs/, but those specs are pointers, not definitions: each names a Go
// runner in internal/experiments ({"experiment": "F7"}), which the engine
// calls, and the parity tests prove the engine's table byte-identical to
// that runner's golden.
package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/obs/monitor"
	"repro/internal/sim"
)

// EngineVersion stamps every canonical-spec hash. Bump it whenever engine
// semantics change in a way that invalidates cached tables (new columns,
// different run assembly, changed defaults, any change to a random stream):
// old cache entries then miss instead of replaying stale results. The run
// ledger records it alongside each spec hash, so old run records state
// which engine produced them. v2: NormFloat64 became a ziggurat.
const EngineVersion = "odrl-scenario-v2"

// BudgetStep re-caps the chip mid-run (mirrors sim.BudgetStep).
type BudgetStep struct {
	AtS     float64 `json:"at_s"`
	BudgetW float64 `json:"budget_w"`
}

// Sweep sweeps one scalar run parameter across a list of values; the engine
// runs every (value × controller) pair and emits one row each.
type Sweep struct {
	// Param is one of budget | cores | epoch | seed.
	Param string `json:"param"`
	// Values are the sweep points, in presentation order, each listed
	// once; seed and cores values are whole numbers in [1, 2^53].
	Values []float64 `json:"values"`
}

// SweepParams lists the valid Sweep.Param values.
func SweepParams() []string { return []string{"budget", "cores", "epoch", "seed"} }

// Spec is one declarative scenario. The zero value of every field means
// "use the engine default", so minimal specs stay minimal and their
// canonical form omits everything unset.
//
// Three run kinds, decided by which fields are set:
//
//   - Experiment != "": replay a registered experiment (CLAIMS, T1..F19)
//     with the shared axes (cores, budget, windows, seed, controllers,
//     benchmarks, quick, fault plan) taken from the spec. The table is
//     byte-identical to the hand-coded runner's.
//   - Sweep != nil: sweep one parameter across Values for every controller.
//   - otherwise: a comparison run — every (seed × workload × controller)
//     combination on the spec's platform, one row per run.
type Spec struct {
	// Name is a free-form human label carried into the table title.
	Name string `json:"name,omitempty"`
	// Experiment selects a registered experiment ID (CLAIMS, T1, T2, F1..F19).
	Experiment string `json:"experiment,omitempty"`
	// Platform is a config preset name ("" = manycore-22nm).
	Platform string `json:"platform,omitempty"`
	// Workload is a preset name, "mix" or "barrier" ("" = mix).
	Workload string `json:"workload,omitempty"`
	// Benchmarks is the workload axis for experiment and comparison runs;
	// empty takes the run kind's default. A comparison sets Workload or
	// Benchmarks, not both.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Controllers is the comparison axis; empty takes the default set.
	Controllers []string `json:"controllers,omitempty"`
	// Cores is the platform size (0 = default).
	Cores int `json:"cores,omitempty"`
	// BudgetW is the chip power budget in watts (0 = default).
	BudgetW float64 `json:"budget_w,omitempty"`
	// BudgetSchedule re-caps the chip mid-run; steps strictly increasing.
	BudgetSchedule []BudgetStep `json:"budget_schedule,omitempty"`
	// EpochS is the control epoch length (0 = default).
	EpochS float64 `json:"epoch_s,omitempty"`
	// WarmupS and MeasureS set run windows (0 = default).
	WarmupS  float64 `json:"warmup_s,omitempty"`
	MeasureS float64 `json:"measure_s,omitempty"`
	// SensorNoise overrides the relative telemetry noise; nil keeps the
	// default (a pointer so an explicit 0 survives canonicalization).
	SensorNoise *float64 `json:"sensor_noise,omitempty"`
	// ThermalOff disables the leakage–temperature loop.
	ThermalOff bool `json:"thermal_off,omitempty"`
	// Seeds lists the run seeds; empty means [1]. Comparison runs emit one
	// row group per seed; experiment and sweep runs accept at most one
	// (CLAIMS judges it and the seeds after it; a sweep over seeds sweeps
	// the "seed" param instead).
	Seeds []uint64 `json:"seeds,omitempty"`
	// Workers bounds run fan-out and chip sharding (the -j knob). Results
	// are bit-identical for any value, so Workers is an execution knob,
	// not part of the scenario identity: Canonical() drops it and the
	// content hash ignores it — runs at different -j share cache entries.
	Workers int `json:"workers,omitempty"`
	// Quick shrinks runs for smoke passes (same scaling as experiments).
	Quick bool `json:"quick,omitempty"`
	// FaultPlan injects deterministic faults into every run.
	FaultPlan *fault.Plan `json:"fault_plan,omitempty"`
	// AlertRules attaches the run-health monitor with these rules; rules
	// over wall-clock metrics (decide_p99_ns) make the alert column
	// nondeterministic and therefore unsuitable for cached comparisons.
	AlertRules []monitor.Rule `json:"alert_rules,omitempty"`
	// Sweep selects the sweep run kind.
	Sweep *Sweep `json:"sweep,omitempty"`
}

// Load strictly decodes one spec: unknown fields anywhere in the document
// (including nested fault plans and alert rules) are errors, and the spec
// must validate. Trailing garbage after the JSON value is an error too.
func Load(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: decoding spec: %w", err)
	}
	// A spec file is exactly one JSON value.
	if dec.More() {
		return Spec{}, fmt.Errorf("scenario: trailing data after spec")
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// LoadBytes is Load over a byte slice.
func LoadBytes(b []byte) (Spec, error) { return Load(bytes.NewReader(b)) }

// knownController reports whether the factory can build name.
func knownController(name string) bool {
	return slices.Contains(sim.ControllerNames(), name)
}

// repeated returns the first entry of xs that an earlier entry repeats.
func repeated[T comparable](xs []T) (T, bool) {
	for i, x := range xs {
		if slices.Contains(xs[:i], x) {
			return x, true
		}
	}
	var zero T
	return zero, false
}

// Validate reports the first invalid field, before any simulation runs.
// It checks the spec's own rules: the run kind and what it admits, known
// controllers, entries listed once, non-zero seeds, the shape of sweep
// values and the alert rules. Every run parameter is sim's to check:
// sim.Options.Validate sees each configuration the spec runs (see points),
// once as written and, for a quick spec, again as it will run, so a spec
// that validates starts every run it lists.
func (s Spec) Validate() error {
	for _, c := range s.Controllers {
		if !knownController(c) {
			return fmt.Errorf("scenario: unknown controller %q (have %v)", c, sim.ControllerNames())
		}
	}
	// A listed-twice axis entry would run twice under one name, and the
	// ledger could no longer tell the two runs apart.
	if c, ok := repeated(s.Controllers); ok {
		return fmt.Errorf("scenario: controller %q listed twice", c)
	}
	if b, ok := repeated(s.Benchmarks); ok {
		return fmt.Errorf("scenario: benchmark %q listed twice", b)
	}
	if seed, ok := repeated(s.Seeds); ok {
		return fmt.Errorf("scenario: seed %d listed twice", seed)
	}
	for _, seed := range s.Seeds {
		if seed == 0 {
			return fmt.Errorf("scenario: seed 0 is reserved (it means \"default\" elsewhere); use an explicit non-zero seed")
		}
	}
	for i := range s.AlertRules {
		if err := s.AlertRules[i].Validate(); err != nil {
			return fmt.Errorf("scenario: alert rule %d: %w", i, err)
		}
	}
	if s.Sweep != nil {
		if !slices.Contains(SweepParams(), s.Sweep.Param) {
			return fmt.Errorf("scenario: unknown sweep param %q (have %v)", s.Sweep.Param, SweepParams())
		}
		if len(s.Sweep.Values) == 0 {
			return fmt.Errorf("scenario: sweep has no values")
		}
		for _, v := range s.Sweep.Values {
			// A seed or a core count is a whole number: anything else would
			// run a converted point under the value's own label. Budget and
			// epoch points are run options, which sim checks.
			if (s.Sweep.Param == "seed" || s.Sweep.Param == "cores") && (v < 1 || v > 1<<53 || v != math.Trunc(v)) {
				return fmt.Errorf("scenario: sweep %s value %g is not a whole number in [1, 2^53]", s.Sweep.Param, v)
			}
		}
		if v, ok := repeated(s.Sweep.Values); ok {
			return fmt.Errorf("scenario: sweep value %g listed twice", v)
		}
		if s.Sweep.Param == "seed" && len(s.Seeds) > 0 {
			return fmt.Errorf("scenario: sweep over seed conflicts with an explicit seeds list")
		}
		if len(s.Benchmarks) > 0 {
			return fmt.Errorf("scenario: sweep runs use the single workload field, not benchmarks")
		}
		if len(s.Seeds) > 1 {
			return fmt.Errorf("scenario: a sweep runs a single seed (got %d); sweep the \"seed\" param to run several", len(s.Seeds))
		}
	} else if s.Experiment == "" && s.Workload != "" && len(s.Benchmarks) > 0 {
		return fmt.Errorf("scenario: a comparison takes workload or benchmarks, not both; list every workload in benchmarks")
	}
	if s.Experiment != "" {
		if _, err := experiments.ByID(s.Experiment); err != nil {
			return err
		}
		// Experiment runners own every axis the shared Config cannot
		// express; rejecting the combination keeps "this spec reproduces
		// that experiment" honest instead of silently ignoring fields.
		switch {
		case s.Sweep != nil:
			return fmt.Errorf("scenario: experiment %s cannot be combined with a sweep", s.Experiment)
		case s.Workload != "":
			return fmt.Errorf("scenario: experiment %s takes its workload axis from benchmarks, not workload", s.Experiment)
		case len(s.BudgetSchedule) > 0:
			return fmt.Errorf("scenario: experiment %s owns its budget schedule", s.Experiment)
		case s.EpochS != 0:
			return fmt.Errorf("scenario: experiment %s owns its epoch length", s.Experiment)
		case s.SensorNoise != nil:
			return fmt.Errorf("scenario: experiment %s owns its sensor-noise model", s.Experiment)
		case s.ThermalOff:
			return fmt.Errorf("scenario: experiment %s owns its thermal model", s.Experiment)
		case len(s.AlertRules) > 0:
			return fmt.Errorf("scenario: experiment %s owns its monitoring (alert_rules applies to comparison and sweep runs)", s.Experiment)
		case s.Platform != "" && s.Platform != config.Default().Name:
			return fmt.Errorf("scenario: experiment %s runs on the default platform; platform overrides apply to comparison and sweep runs", s.Experiment)
		case len(s.Seeds) > 1:
			return fmt.Errorf("scenario: experiment %s takes a single seed (got %d)", s.Experiment, len(s.Seeds))
		}
	}
	written := s
	written.Quick = false
	if err := written.validatePoints(); err != nil {
		return err
	}
	if s.Quick {
		if err := s.validatePoints(); err != nil {
			return fmt.Errorf("scenario: as a quick run: %w", err)
		}
	}
	return nil
}

// validatePoints checks every configuration the spec runs through
// sim.Options.Validate: once per point, not per controller, so the check
// stays linear in the spec's size.
func (s Spec) validatePoints() error {
	points, err := s.points(sim.Stack{})
	if err != nil {
		return err
	}
	for _, p := range points {
		if err := p.opts.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// canonicalized returns the spec with identity-irrelevant state normalised:
// Workers dropped (results are bit-identical for any worker count — the PR 2
// sweep-cache lesson, kept as an invariant), empty slices nilled so `[]` and
// omission read identically, the default platform name folded to "", and a
// fault plan that injects nothing folded to nil (every run path treats a
// zero plan as absent). It is idempotent, which makes Canonical a fixed
// point.
func (s Spec) canonicalized() Spec {
	s.Workers = 0
	if s.Platform == config.Default().Name {
		s.Platform = ""
	}
	if s.FaultPlan != nil && s.FaultPlan.Zero() {
		s.FaultPlan = nil
	}
	if len(s.Benchmarks) == 0 {
		s.Benchmarks = nil
	}
	if len(s.Controllers) == 0 {
		s.Controllers = nil
	}
	if len(s.Seeds) == 0 {
		s.Seeds = nil
	}
	if len(s.BudgetSchedule) == 0 {
		s.BudgetSchedule = nil
	}
	if len(s.AlertRules) == 0 {
		s.AlertRules = nil
	}
	if s.Sweep != nil && len(s.Sweep.Values) == 0 {
		// Unreachable after Validate; kept so canonicalization never
		// depends on validation having run.
		s.Sweep = &Sweep{Param: s.Sweep.Param}
	}
	return s
}

// Canonical renders the spec's canonical JSON form: normalised fields,
// fixed key order, two-space indent, trailing newline. Decoding the result
// and canonicalizing again reproduces the same bytes (a fixed point), which
// is what makes the content hash well-defined.
func (s Spec) Canonical() ([]byte, error) {
	b, err := json.MarshalIndent(s.canonicalized(), "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: encoding spec: %w", err)
	}
	return append(b, '\n'), nil
}

// Hash returns the spec's content address: hex SHA-256 over the engine
// version stamp and the canonical JSON. Two specs hash equal iff the engine
// would produce byte-identical tables for them (Workers excluded; see
// canonicalized). Failed runs are never stored under this key, so a hash
// hit always denotes a previously successful run.
func (s Spec) Hash() (string, error) {
	canon, err := s.Canonical()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	io.WriteString(h, EngineVersion)
	h.Write([]byte{0})
	h.Write(canon)
	return hex.EncodeToString(h.Sum(nil)), nil
}
