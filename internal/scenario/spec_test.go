package scenario

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs/monitor"
)

// fullSpecJSON exercises every Spec field at once; tests that need a
// maximal spec share it.
const fullSpecJSON = `{
  "name": "everything at once",
  "platform": "manycore-ntc",
  "workload": "canneal",
  "controllers": ["od-rl", "pid"],
  "cores": 16,
  "budget_w": 30,
  "budget_schedule": [{"at_s": 0.5, "budget_w": 20}],
  "epoch_s": 0.001,
  "warmup_s": 0.2,
  "measure_s": 0.3,
  "sensor_noise": 0,
  "thermal_off": true,
  "seeds": [7, 9],
  "workers": 3,
  "quick": false,
  "fault_plan": {"sensor_stuck_prob": 0.01, "meter_bias": 0.05},
  "alert_rules": [{"name": "over", "metric": "overshoot_frac_ema", "op": ">", "threshold": 0.1, "for_epochs": 5}]
}`

func mustLoad(t *testing.T, src string) Spec {
	t.Helper()
	s, err := LoadBytes([]byte(src))
	if err != nil {
		t.Fatalf("LoadBytes: %v", err)
	}
	return s
}

func TestLoadStrictness(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string // error substring
	}{
		{"unknown top-level field", `{"experiment": "F1", "bogus": 1}`, "bogus"},
		{"unknown fault-plan field", `{"fault_plan": {"sensor_stuck_prob": 0.1, "bogus": 1}}`, "bogus"},
		{"unknown alert-rule field", `{"alert_rules": [{"name": "x", "metric": "ips", "op": ">", "bogus": 1}]}`, "bogus"},
		{"unknown sweep field", `{"sweep": {"param": "budget", "values": [1], "bogus": 1}}`, "bogus"},
		{"trailing data", `{"experiment": "F1"} {"experiment": "F2"}`, "trailing data"},
		{"malformed json", `{"experiment": `, "decoding spec"},
		{"wrong type", `{"cores": "many"}`, "decoding spec"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadBytes([]byte(tc.src))
			if err == nil {
				t.Fatalf("LoadBytes accepted %s", tc.src)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q missing %q", err, tc.want)
			}
		})
	}
}

func TestValidateRejections(t *testing.T) {
	noise := -0.1
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"unknown platform", Spec{Platform: "vax"}, "unknown platform"},
		{"unknown workload", Spec{Workload: "doom"}, "unknown"},
		{"unknown benchmark", Spec{Benchmarks: []string{"doom"}}, "unknown"},
		{"unknown controller", Spec{Controllers: []string{"clippy"}}, "unknown controller"},
		{"controller twice", Spec{Controllers: []string{"od-rl", "maxbips", "od-rl"}}, `controller "od-rl" listed twice`},
		{"benchmark twice", Spec{Benchmarks: []string{"canneal", "canneal"}}, `benchmark "canneal" listed twice`},
		{"seed twice", Spec{Seeds: []uint64{3, 1, 3}}, "seed 3 listed twice"},
		{"negative cores", Spec{Cores: -1}, "invalid core count -1"},
		{"negative budget", Spec{BudgetW: -5}, "invalid budget"},
		{"negative epoch", Spec{EpochS: -1}, "invalid epoch"},
		{"negative warmup", Spec{WarmupS: -1}, "invalid warmup"},
		{"negative measure", Spec{MeasureS: -1}, "invalid measurement"},
		{"negative workers", Spec{Workers: -1}, "negative worker count"},
		{"negative noise", Spec{SensorNoise: &noise}, "invalid sensor noise"},
		{"zero seed", Spec{Seeds: []uint64{1, 0}}, "seed 0 is reserved"},
		{"budget schedule not increasing", Spec{BudgetSchedule: []BudgetStep{{AtS: 1, BudgetW: 50}, {AtS: 1, BudgetW: 40}}}, "budget step"},
		{"budget schedule nonpositive", Spec{BudgetSchedule: []BudgetStep{{AtS: 1, BudgetW: 0}}}, "budget step"},
		{"bad fault plan", Spec{FaultPlan: &fault.Plan{SensorStuckProb: 2}}, "fault"},
		{"bad alert rule", Spec{AlertRules: []monitor.Rule{{Name: "x", Metric: "nope", Op: ">"}}}, "alert rule 0"},
		{"bad sweep param", Spec{Sweep: &Sweep{Param: "teapots", Values: []float64{1}}}, "unknown sweep param"},
		{"empty sweep values", Spec{Sweep: &Sweep{Param: "budget"}}, "no values"},
		{"nonfinite sweep value", Spec{Sweep: &Sweep{Param: "budget", Values: []float64{inf()}}}, "invalid budget +Inf W"},
		{"negative sweep budget", Spec{Sweep: &Sweep{Param: "budget", Values: []float64{50, -5}}}, "invalid budget -5 W"},
		{"zero sweep epoch", Spec{Sweep: &Sweep{Param: "epoch", Values: []float64{0.001, 0}}}, "invalid epoch 0 s"},
		{"NaN sweep cores", Spec{Sweep: &Sweep{Param: "cores", Values: []float64{math.NaN()}}}, "cores value NaN is not a whole number"},
		{"NaN budget", Spec{BudgetW: math.NaN()}, "invalid budget NaN W"},
		{"infinite warmup", Spec{WarmupS: inf()}, "invalid warmup +Inf s"},
		{"NaN noise", Spec{SensorNoise: ptr(math.NaN())}, "invalid sensor noise NaN"},
		{"NaN budget step", Spec{BudgetSchedule: []BudgetStep{{AtS: math.NaN(), BudgetW: 50}}}, "budget step 0"},
		{"zero-epoch window", Spec{MeasureS: 0.0004}, "measurement window 0.0004 s rounds to 0 epochs"},
		{"zero-epoch experiment window", Spec{Experiment: "F2", MeasureS: 1e-5}, "rounds to 0 epochs"},
		{"zero-epoch window only when quick", Spec{EpochS: 2, Quick: true}, "as a quick run: sim: measurement window 0.5 s rounds to 0 epochs of 2 s"},
		{"bad window hidden by quick", Spec{MeasureS: -1, Quick: true}, "invalid measurement window -1 s"},
		{"zero sweep seed", Spec{Sweep: &Sweep{Param: "seed", Values: []float64{0}}}, "seed value 0 is not a whole number"},
		{"negative sweep seed", Spec{Sweep: &Sweep{Param: "seed", Values: []float64{1, -3}}}, "seed value -3 is not a whole number"},
		{"fractional sweep seed", Spec{Sweep: &Sweep{Param: "seed", Values: []float64{1.5}}}, "seed value 1.5 is not a whole number"},
		{"sweep seed past 2^53", Spec{Sweep: &Sweep{Param: "seed", Values: []float64{1<<53 + 2}}}, "not a whole number in [1, 2^53]"},
		{"fractional sweep cores", Spec{Sweep: &Sweep{Param: "cores", Values: []float64{16, 2.5}}}, "cores value 2.5 is not a whole number"},
		{"zero sweep cores", Spec{Sweep: &Sweep{Param: "cores", Values: []float64{0}}}, "cores value 0 is not a whole number"},
		{"sweep value twice", Spec{Sweep: &Sweep{Param: "cores", Values: []float64{4, 16, 4}}}, "sweep value 4 listed twice"},
		{"sweep budget twice", Spec{Sweep: &Sweep{Param: "budget", Values: []float64{40, 40}}}, "sweep value 40 listed twice"},
		{"sweep seed vs seeds", Spec{Seeds: []uint64{1}, Sweep: &Sweep{Param: "seed", Values: []float64{1}}}, "conflicts"},
		{"sweep vs benchmarks", Spec{Benchmarks: []string{"canneal"}, Sweep: &Sweep{Param: "budget", Values: []float64{1}}}, "not benchmarks"},
		{"sweep with two seeds", Spec{Seeds: []uint64{1, 2}, Sweep: &Sweep{Param: "budget", Values: []float64{1}}}, `sweep the "seed" param`},
		{"comparison with workload and benchmarks", Spec{Workload: "canneal", Benchmarks: []string{"vips"}}, "list every workload in benchmarks"},
		{"unknown experiment", Spec{Experiment: "F99"}, "unknown experiment"},
		{"experiment with sweep", Spec{Experiment: "F1", Sweep: &Sweep{Param: "budget", Values: []float64{1}}}, "cannot be combined"},
		{"experiment with workload", Spec{Experiment: "F1", Workload: "canneal"}, "benchmarks, not workload"},
		{"experiment with schedule", Spec{Experiment: "F1", BudgetSchedule: []BudgetStep{{AtS: 1, BudgetW: 50}}}, "budget schedule"},
		{"experiment with epoch", Spec{Experiment: "F1", EpochS: 1e-3}, "epoch length"},
		{"experiment with noise", Spec{Experiment: "F1", SensorNoise: ptr(0.01)}, "sensor-noise"},
		{"experiment with thermal off", Spec{Experiment: "F1", ThermalOff: true}, "thermal"},
		{"experiment with rules", Spec{Experiment: "F1", AlertRules: []monitor.Rule{{Name: "x", Metric: "ips", Op: ">"}}}, "monitoring"},
		{"experiment with platform", Spec{Experiment: "F1", Platform: "manycore-ntc"}, "default platform"},
		{"experiment with two seeds", Spec{Experiment: "F1", Seeds: []uint64{1, 2}}, "single seed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %+v", tc.spec)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q missing %q", err, tc.want)
			}
		})
	}
}

func ptr(v float64) *float64 { return &v }
func inf() float64           { return math.Inf(1) }

func TestValidateAccepts(t *testing.T) {
	for _, src := range []string{
		`{}`,
		`{"experiment": "F1"}`,
		`{"experiment": "F1", "platform": "manycore-22nm"}`,
		`{"sweep": {"param": "budget", "values": [40, 55]}}`,
		`{"sweep": {"param": "seed", "values": [1, 9007199254740992]}}`,
		`{"sweep": {"param": "cores", "values": [16, 4]}}`,
		fullSpecJSON,
	} {
		if _, err := LoadBytes([]byte(src)); err != nil {
			t.Errorf("LoadBytes(%s): %v", src, err)
		}
	}
}

// TestCanonicalFixedPoint is the canonicalization contract: decode →
// canonicalize → re-encode → re-decode → canonicalize reproduces the same
// bytes, for minimal and maximal specs alike.
func TestCanonicalFixedPoint(t *testing.T) {
	for _, src := range []string{`{}`, `{"experiment": "F18"}`, fullSpecJSON} {
		s := mustLoad(t, src)
		c1, err := s.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		s2, err := LoadBytes(c1)
		if err != nil {
			t.Fatalf("canonical form failed to re-load: %v\n%s", err, c1)
		}
		c2, err := s2.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c1, c2) {
			t.Errorf("canonicalization is not a fixed point:\n--- first\n%s--- second\n%s", c1, c2)
		}
	}
}

// TestCanonicalNormalises pins the identity-irrelevant rewrites: empty
// slices read as omitted, the default platform name folds to "", the
// worker count is dropped entirely, and a fault plan that injects nothing
// reads as no plan.
func TestCanonicalNormalises(t *testing.T) {
	base := mustLoad(t, `{"experiment": "F1"}`)
	variants := []string{
		`{"experiment": "F1", "controllers": [], "benchmarks": [], "seeds": []}`,
		`{"experiment": "F1", "platform": "manycore-22nm"}`,
		`{"experiment": "F1", "workers": 8}`,
		`{"experiment": "F1", "fault_plan": {}}`,
		`{"experiment": "F1", "fault_plan": {"seed": 1}}`,
		// fault.Scaled(0), the -fault-plan 0 plan: windows set, no rates.
		`{"experiment": "F1", "fault_plan": {"blackout_dur_s": 0.04, "budget_drop_frac": 0.2, "budget_drop_dur_s": 0.1}}`,
	}
	want, err := base.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range variants {
		got, err := mustLoad(t, src).Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("canonical(%s) differs from canonical base:\n--- want\n%s--- got\n%s", src, want, got)
		}
	}
}

// TestHashExcludesWorkers proves runs at different -j share one cache
// entry: results are bit-identical for any worker count, so the worker
// count must not be part of the scenario identity.
func TestHashExcludesWorkers(t *testing.T) {
	s := mustLoad(t, fullSpecJSON)
	base, err := s.Hash()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 1, 4, 64} {
		s.Workers = w
		h, err := s.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if h != base {
			t.Errorf("workers=%d changed the hash: %s != %s", w, h, base)
		}
	}
}
