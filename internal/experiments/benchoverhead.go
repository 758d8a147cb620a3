package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/learn"
	"repro/internal/obs/monitor"
	"repro/internal/sim"
)

// OverheadCase is one timed layer-off-vs-on comparison over an identical
// simulation (same seed, controller and epoch count; every observability
// layer is read-only toward the run, so the delta is pure layer cost).
type OverheadCase struct {
	// Name identifies the workload being timed.
	Name string `json:"name"`
	// Epochs is the total epoch count each leg executes.
	Epochs int `json:"epochs"`
	// OffCPUS and OnCPUS are the seconds of the median rep's legs without
	// and with the layer, in process CPU time where the platform measures
	// it (Linux) and wall clock otherwise: OnCPUS/OffCPUS - 1 is
	// OverheadFrac.
	OffCPUS float64 `json:"off_cpu_s"`
	OnCPUS  float64 `json:"on_cpu_s"`
	// OverheadFrac is the median per-rep on/off ratio minus one. Each rep
	// times an adjacent off/on pair, so slow host drift hits both legs
	// alike, and the median discards the odd preempted rep.
	OverheadFrac float64 `json:"overhead_frac"`
}

// OverheadReport is the machine-readable output of `odrl-bench
// -bench-<layer>` (written as BENCH_<layer>.json): the epoch-loop cost of
// one observability layer on this host.
type OverheadReport struct {
	obs.Host
	Layer string         `json:"layer"`
	Cases []OverheadCase `json:"cases"`
}

// overheadSpec names one timed case: a controller on a chip of the given
// size, and how many simulated seconds its measured leg runs.
type overheadSpec struct {
	name, controller string
	cores            int
	measureS         float64
}

// overheadLayer is one layer under the paired protocol: how a fresh
// instance attaches to a run's options, and the cases that time it.
type overheadLayer struct {
	attach func(*sim.Options)
	cases  []overheadSpec
}

// Simulated seconds are chosen so each timed leg is a large fraction of a
// wall-clock second: a few-percent delta is invisible under scheduler noise
// on legs much shorter than that. greedy steps epochs faster than od-rl, so
// it gets more of them; its Decide is nearly free, so a layer's per-epoch
// work is the largest relative slice it will ever be.
var (
	greedyAndODRL = []overheadSpec{
		{"epoch-loop-greedy-64c", "greedy", 64, 40},
		{"epoch-loop-odrl-64c", "od-rl", 64, 25},
	}
	overheadLayers = map[string]overheadLayer{
		// The run-health monitor: default rules, series, sketches, live
		// hub idle.
		"monitor": {
			attach: func(o *sim.Options) { o.Monitor = monitor.New(monitor.Options{}) },
			cases:  greedyAndODRL,
		},
		// Learning introspection with no tracer or artifact directory. Only
		// OD-RL streams learning telemetry; the 16-core chip makes the
		// layer's fixed per-epoch work the largest relative slice.
		"learn": {
			attach: func(o *sim.Options) { o.Learn = learn.New(learn.Options{}) },
			cases: []overheadSpec{
				{"epoch-loop-odrl-64c", "od-rl", 64, 25},
				{"epoch-loop-odrl-16c", "od-rl", 16, 60},
			},
		},
		// The always-on flight recorder: epoch ring, decide sketch and span
		// timeline armed, against a leg with no observer at all.
		"flight": {
			attach: func(o *sim.Options) {
				rec := flight.New(flight.Options{})
				o.Observer = rec.Wrap(nil)
				o.SpanSink = rec.Timeline()
			},
			cases: greedyAndODRL,
		},
	}
)

// BenchOverhead measures one observability layer's epoch-loop overhead —
// "monitor", "learn" or "flight" — with 15 paired reps per case. 15 reps
// put the median's standard error near 0.5% on a host with ±1.5% per-pair
// jitter, tight enough to hold a few-percent ceiling without flaking.
func BenchOverhead(layer string) (OverheadReport, error) {
	l, ok := overheadLayers[layer]
	if !ok {
		return OverheadReport{}, fmt.Errorf("experiments: unknown overhead layer %q", layer)
	}
	return benchOverhead(layer, 15, l.cases)
}

// benchOverhead runs the given cases with the given rep count; the smoke
// tests pass cheap specs so the schema check stays fast under the race
// detector, while the CLI gate keeps the full protocol.
func benchOverhead(layer string, reps int, specs []overheadSpec) (OverheadReport, error) {
	attach := overheadLayers[layer].attach
	rep := OverheadReport{Host: obs.HostInfo(), Layer: layer}
	for _, tc := range specs {
		opts := sim.DefaultOptions()
		opts.Workers = 1
		opts.WarmupS = 0.5
		opts.Cores = tc.cores
		opts.MeasureS = tc.measureS
		c, err := overheadCase(tc.name, tc.controller, opts, attach, reps)
		if err != nil {
			return rep, fmt.Errorf("bench-%s %s: %w", layer, tc.name, err)
		}
		rep.Cases = append(rep.Cases, c)
	}
	return rep, nil
}

// overheadCase times one options set with the layer off and on.
func overheadCase(name, controller string, opts sim.Options, attach func(*sim.Options), reps int) (OverheadCase, error) {
	// Only sim.Run sits inside the timed region; environment, controller
	// and layer construction all happen (and allocate) outside it.
	run := func(on bool) (wallS, cpuS float64, err error) {
		o := opts
		if on {
			attach(&o)
		}
		env, err := sim.EnvFor(o)
		if err != nil {
			return 0, 0, err
		}
		c, err := sim.NewController(controller, env)
		if err != nil {
			return 0, 0, err
		}
		defer release(c)
		// Collect before the timed region so GC debt from construction (or
		// from the previous leg) is never swept inside it.
		runtime.GC()
		return timeRunBoth(func() error {
			_, err := sim.Run(o, c)
			return err
		})
	}
	// Warm once so first-use allocation and page faults don't bias the
	// off leg.
	if _, _, err := run(false); err != nil {
		return OverheadCase{}, err
	}
	type pair struct{ off, on float64 }
	pairs := make([]pair, 0, reps)
	for i := 0; i < reps; i++ {
		off, offCPU, err := run(false)
		if err != nil {
			return OverheadCase{}, err
		}
		on, onCPU, err := run(true)
		if err != nil {
			return OverheadCase{}, err
		}
		// Ratio CPU time when the platform measures it: wall clock on a
		// shared host swings by more than the ceilings under test.
		if offCPU > 0 && onCPU > 0 {
			off, on = offCPU, onCPU
		}
		if off > 0 {
			pairs = append(pairs, pair{off, on})
		}
	}
	warmup, measure := opts.Epochs()
	c := OverheadCase{Name: name, Epochs: warmup + measure}
	if len(pairs) > 0 {
		sort.Slice(pairs, func(i, j int) bool { return pairs[i].on/pairs[i].off < pairs[j].on/pairs[j].off })
		m := pairs[len(pairs)/2]
		c.OffCPUS, c.OnCPUS, c.OverheadFrac = m.off, m.on, m.on/m.off-1
	}
	return c, nil
}

// timeRunBoth reports wall-clock and process-CPU seconds of one invocation
// of fn; cpuS is zero when the platform cannot measure CPU time. The
// overhead gates ratio CPU time where available because it is immune to the
// scheduler noise that dominates wall clock on shared hosts.
func timeRunBoth(fn func() error) (wallS, cpuS float64, err error) {
	c0 := obs.CPUSeconds()
	start := time.Now() //odrl:allow wallclock bench harness measures host wall-clock by design
	err = fn()
	wallS = time.Since(start).Seconds() //odrl:allow wallclock bench harness measures host wall-clock by design
	if c1 := obs.CPUSeconds(); c1 > c0 {
		cpuS = c1 - c0
	}
	return wallS, cpuS, err
}

// WriteJSON renders the report as indented JSON.
func (r OverheadReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
