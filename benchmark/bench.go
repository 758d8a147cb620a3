package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"time"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// runConfig is one benchmark invocation's settings.
type runConfig struct {
	seed    uint64
	seconds float64 // length of the measured window
	trace   bool
	quick   bool
	// keepTrace retains the first traced run's spans for a trace file.
	keepTrace bool
}

// minUnits is the fewest units of work a window measures, however long
// each takes, so a median always exists.
const minUnits = 3

func (c runConfig) setupSamples() int {
	if c.quick {
		return 3
	}
	return 25
}

// metric is one reported number: the median over its samples, with
// quartiles and the sample count. A normalised time (see refLoop) also
// carries the same samples in raw host time.
type metric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
	dist
	Raw *dist `json:"raw,omitempty"`
}

// outcome is one workload's result.
type outcome struct {
	Workload  string   `json:"workload"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Digest    string   `json:"digest"`
	Pin       string   `json:"pin"` // match | mismatch | unpinned
	Failures  []string `json:"failures,omitempty"`
	Metrics   []metric `json:"metrics"`

	spans []span // first traced run, when keepTrace
}

// pinsJSON maps scenario.EngineVersion → workload → seed → digest of the
// simulated outputs. A physics re-baseline bumps the engine version, which
// leaves every run unpinned rather than failing.
//
//go:embed pins.json
var pinsJSON []byte

func pinFor(name string, seed uint64) (string, error) {
	var pins map[string]map[string]map[string]string
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return "", fmt.Errorf("pins.json: %w", err)
	}
	return pins[scenario.EngineVersion][name][strconv.FormatUint(seed, 10)], nil
}

// checker counts operations (units of work and traced runs) and the ones
// that failed: an error return, an invalid or non-finite summary, or
// simulated outputs that differ from the pin, from the first unit, or
// between the traced loop and the untraced path.
type checker struct {
	attempted, failed int
	failures          []string
	digest, pin       string
}

func (k *checker) fail(format string, args ...any) {
	k.failed++
	k.failures = append(k.failures, fmt.Sprintf(format, args...))
}

// op counts one operation and reports whether it succeeded.
func (k *checker) op(what string, err error) bool {
	k.attempted++
	if err != nil {
		k.fail("%s: %v", what, err)
		return false
	}
	return true
}

// sameOutputs checks a unit's digest against the pin and the first digest
// seen; a mismatch fails the operation op already counted.
func (k *checker) sameOutputs(what, digest string) bool {
	switch {
	case k.digest == "":
		k.digest = digest
		if k.pin != "" && digest != k.pin {
			k.fail("%s: outputs %s differ from the pinned %s", what, digest, k.pin)
			return false
		}
	case digest != k.digest:
		k.fail("%s: outputs %s differ from the first unit's %s", what, digest, k.digest)
		return false
	}
	return true
}

// loopPass runs every job of w through the traced loop, in order, and
// checks each against the untraced path: bit-identical results where
// results are given, identical table rows where rows are given. It returns
// nil if any job failed.
func (k *checker) loopPass(w workload, t *tracer, rows [][]string, results []sim.Result) []loopRun {
	runs := make([]loopRun, 0, len(w.jobs))
	ok := true
	for i, j := range w.jobs {
		what := fmt.Sprintf("traced %s on %s", j.controller, j.opts.Workload)
		r0 := refLoop()
		d, err := runLoop(t, j.opts, j.controller)
		d.scale = refScale(r0, refLoop())
		if !k.op(what, err) {
			ok = false
			continue
		}
		if rows != nil && !slices.Equal(gridRow(j, d.res.Summary), rows[i]) {
			k.fail("%s: row %v differs from the engine table's %v", what, gridRow(j, d.res.Summary), rows[i])
			ok = false
		}
		if results != nil {
			got, err1 := resultDigest(d.res)
			want, err2 := resultDigest(results[i])
			if err1 != nil || err2 != nil || got != want {
				k.fail("%s: outputs differ from sim.Run (%s vs %s; %v; %v)", what, got, want, err1, err2)
				ok = false
			}
		}
		runs = append(runs, d)
	}
	if !ok {
		return nil
	}
	return runs
}

// runWorkload measures one workload for cfg.seconds and checks its outputs.
func runWorkload(w workload, cfg runConfig) outcome {
	out := outcome{Workload: w.name, Pin: "unpinned"}
	k := &checker{}
	if !cfg.quick {
		pin, err := pinFor(w.name, w.seed)
		k.op("loading pins", err)
		k.pin = pin
	}

	var setups []setupSample
	for i := 0; i < cfg.setupSamples(); i++ {
		s, err := w.setup()
		if k.op("setup", err) {
			setups = append(setups, s)
		}
	}
	// One untimed unit warms caches and the allocator, and pins outputs.
	warm, err := w.runUnit(true)
	if k.op("warm unit", err) {
		k.sameOutputs("warm unit", warm.digest)
	}
	if cfg.trace {
		out.Metrics = traced(w, cfg, k, warm, setups, &out)
	} else {
		out.Metrics = untraced(w, cfg, k, warm, setups)
	}

	out.Digest = k.digest
	if k.pin != "" {
		out.Pin = "match"
		if k.digest != k.pin {
			out.Pin = "mismatch"
		}
	}
	out.Attempted, out.Failed, out.Failures = k.attempted, k.failed, k.failures
	out.Correct = k.failed == 0
	return out
}

// untraced measures the end-to-end metrics: units of work back to back for
// the window, then one traced pass as the fidelity check.
func untraced(w workload, cfg runConfig, k *checker, warm unit, setups []setupSample) []metric {
	var units []unit
	start := time.Now()
	for n := 0; n < minUnits || time.Since(start).Seconds() < cfg.seconds; n++ {
		u, err := w.runUnit(true)
		if k.op("unit", err) && k.sameOutputs("unit", u.digest) {
			units = append(units, u)
		}
	}

	total, measured, coreEpochs := w.epochs()
	var throughput, rawThroughput, decideUs, rawDecideUs, allocB []float64
	for _, u := range units {
		throughput = append(throughput, coreEpochs/u.normS)
		rawThroughput = append(rawThroughput, coreEpochs/u.wallS)
		allocB = append(allocB, u.allocB/total)
		if w.spec == nil {
			decideUs = append(decideUs, u.normCtrlS/measured*1e6)
			rawDecideUs = append(rawDecideUs, u.ctrlS/measured*1e6)
		}
	}
	t := newTracer(spanCapacity(w))
	runs := k.loopPass(w, t, warm.rows, warm.results)
	if w.spec != nil && runs != nil {
		// Engine tables carry no wall-clock columns, so a grid's decide
		// time comes from the fidelity pass, timed around each Decide
		// exactly as sim.Run times CtrlTimeS.
		var ns, normNs float64
		for _, d := range runs {
			ns += float64(d.measDecideNs)
			normNs += float64(d.measDecideNs) * d.scale
		}
		decideUs = append(decideUs, normNs/1e3/measured)
		rawDecideUs = append(rawDecideUs, ns/1e3/measured)
	}

	var setupS, rawSetupS, heapMB []float64
	for _, s := range setups {
		setupS = append(setupS, s.normS)
		rawSetupS = append(rawSetupS, s.totalS)
		heapMB = append(heapMB, s.heapB/(1<<20))
	}
	normalised := func(name, unit string, norm, raw []float64) metric {
		r := summarize(raw)
		return metric{Name: name, Unit: unit, dist: summarize(norm), Raw: &r}
	}
	return []metric{
		normalised("core_epochs_per_s", "core-epochs/s", throughput, rawThroughput),
		normalised("decide_us_mean", "us", decideUs, rawDecideUs),
		normalised("setup_s", "s", setupS, rawSetupS),
		{Name: "setup_heap_mb", Unit: "MiB", dist: summarize(heapMB)},
		{Name: "alloc_bytes_per_epoch", Unit: "B", dist: summarize(allocB)},
	}
}

// spanCapacity sizes a tracer for one pass over w's jobs: at most six spans
// per epoch plus a handful per run.
func spanCapacity(w workload) int {
	total, _, _ := w.epochs()
	return int(total)*6 + 8*len(w.jobs)
}
