package main

import (
	"math"
	"time"
)

// traced measures the per-layer metrics. Each round runs one untraced unit
// of work (for a grid, the par fan-out with per-job timing; for the observed
// workload, plus one bare unit without the observability stack) and one
// traced pass over the same jobs, which must reproduce the untraced outputs
// bit for bit. The sub-layer replays run once, after the window.
func traced(w workload, cfg runConfig, k *checker, warm unit, setups []setupSample, out *outcome) []metric {
	acc := newLayerAcc()
	total, _, _ := w.epochs()
	obsPair := w.spec == nil && w.jobs[0].observed
	var last []loopRun
	start := time.Now()
	for r := 0; r < 1 || time.Since(start).Seconds() < cfg.seconds; r++ {
		var ref unit
		var err error
		if w.spec != nil {
			ref, err = w.runFanout()
			if !k.op("fan-out unit", err) {
				continue
			}
		} else {
			ref, err = w.runUnit(true)
			if !k.op("unit", err) || !k.sameOutputs("unit", ref.digest) {
				continue
			}
		}
		var bare unit
		if obsPair {
			bare, err = w.runUnit(false)
			if !k.op("bare unit", err) || !k.sameOutputs("bare unit", bare.digest) {
				continue
			}
		}

		t := newTracer(spanCapacity(w))
		runs := k.loopPass(w, t, warm.rows, ref.results)
		if runs == nil {
			continue
		}
		acc.add(t, runs)
		last = runs

		// Overheads compare normalised seconds, so a change in host load
		// between the two sides of a pair cancels.
		var tracedS, untracedS float64
		for _, d := range runs {
			tracedS += float64(t.spans[d.first].dur()) / 1e9 * d.scale
		}
		switch {
		case ref.jobS != nil:
			sum, max := 0.0, 0.0
			for _, s := range ref.jobS {
				sum += s
				max = math.Max(max, s)
			}
			untracedS = sum * ref.normS / ref.wallS
			acc.fanoutEff = append(acc.fanoutEff, sum/(float64(w.spec.Workers)*ref.wallS))
			acc.criticalPath = append(acc.criticalPath, max/ref.wallS)
		case obsPair:
			// The traced loop attaches no observers, so it is compared
			// with the bare unit.
			untracedS = bare.normS
		default:
			untracedS = ref.normS
		}
		acc.tracingOverhead = append(acc.tracingOverhead, tracedS/untracedS-1)
		if obsPair {
			acc.obsOverhead = append(acc.obsOverhead, ref.normS/bare.normS-1)
			acc.obsAllocPerEp = append(acc.obsAllocPerEp, (ref.allocB-bare.allocB)/total)
		}
		if cfg.keepTrace && out.spans == nil {
			// The first run of the pass opens a fresh tracer, so its spans
			// are a prefix whose parent indices stay valid.
			out.spans = t.spans[:runs[0].last]
		}
	}
	if last == nil {
		return nil
	}

	batches, perBatch := 15, 50
	if cfg.quick {
		batches, perBatch = 3, 5
	}
	rc, err := replay(w.jobs[0], last[0].tel, batches, perBatch)
	if !k.op("sub-layer replay", err) {
		return nil
	}
	return layerMetrics(w, acc, rc, setups)
}

// layerMetrics assembles the per-layer report. Layers a workload bypasses
// report a zero share or count; every time is measured on every workload.
func layerMetrics(w workload, a *layerAcc, rc replayCost, setups []setupSample) []metric {
	var ms []metric
	add := func(name, unit string, v float64, n int) {
		ms = append(ms, metric{Name: name, Unit: unit, dist: dist{Median: v, Q1: v, Q3: v, N: n}})
	}
	addDist := func(name, unit string, xs []float64) {
		ms = append(ms, metric{Name: name, Unit: unit, dist: summarize(xs)})
	}
	addTail := func(name string, xs []float64) {
		if v, ok := tail(xs, 0.99); ok {
			add(name, "ns", v, len(xs))
		}
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	epochs := len(a.epochNs)
	epochT := float64(a.epochTotal)
	stepMean := ratio(float64(a.stepTotal), float64(len(a.stepNs)))
	passes := float64(a.passes)
	jobs := float64(len(w.jobs))
	cores := w.jobs[0].opts.Cores

	addDist("sim.epoch_ns_p50", "ns", a.epochNs)
	addTail("sim.epoch_ns_p99", a.epochNs)
	add("sim.loop_overhead_ns_per_epoch", "ns", ratio(float64(a.epochSelf), float64(epochs)), epochs)
	addDist("sim.tracing_overhead_frac", "ratio", a.tracingOverhead)

	addDist("manycore.step_ns_p50", "ns", a.stepNs)
	addTail("manycore.step_ns_p99", a.stepNs)
	add("manycore.step_ns_per_core", "ns", ratio(float64(a.stepTotal), a.stepCoreCalls), len(a.stepNs))
	add("manycore.step_share", "ratio", ratio(float64(a.stepTotal), epochT), epochs)
	add("manycore.step_residual_ns", "ns", stepMean-rc.perEpochNs(cores), len(a.stepNs))
	add("manycore.phase_change_frac", "ratio", ratio(float64(a.phaseChanges), float64(a.liveCoreEpochs)), a.liveCoreEpochs)
	add("manycore.setlevel_ns_per_epoch", "ns", ratio(float64(a.setLevelTotal), float64(epochs)), epochs)
	var chipMs, ctrlMs, vhFrac []float64
	for _, s := range setups {
		chipMs = append(chipMs, s.chipS/jobs*1e3)
		ctrlMs = append(ctrlMs, s.ctrlS/jobs*1e3)
		vhFrac = append(vhFrac, s.validateHashS/s.totalS)
	}
	addDist("manycore.newchip_ms", "ms", chipMs)

	add("rng.normal_draws_per_epoch", "count", rc.drawsPerEpoch, 1)
	add("rng.normal_ns_per_draw", "ns", rc.nsPerDraw, 1)
	add("rng.share_of_step", "ratio", ratio(rc.drawsPerEpoch*rc.nsPerDraw, stepMean), 1)
	add("thermal.step_ns_per_epoch", "ns", rc.thermalNs, 1)
	add("power.leakage_lut_ns_per_core", "ns", rc.lutNsPerCore, 1)
	add("workload.advance_ns_per_core", "ns", rc.advNsPerCore, 1)

	addDist("ctrl.decide_ns_p50", "ns", a.decideNs)
	addTail("ctrl.decide_ns_p99", a.decideNs)
	add("ctrl.decide_share", "ratio", ratio(float64(a.decideTotal), epochT), epochs)
	addDist("ctrl.new_ms", "ms", ctrlMs)
	for _, c := range controllerNames {
		add("ctrl.decide_share."+c, "ratio", ratio(float64(a.decideByCtrl[c]), epochT), epochs)
	}
	add("core.local_frac", "ratio", ratio(a.odrlLocalS, a.odrlDecideS), epochs)
	add("core.global_frac", "ratio", ratio(a.odrlGlobalS, a.odrlDecideS), epochs)

	const maxbips, steepest = "baselines.maxbips.solve", "baselines.steepest.solve"
	add("baselines.maxbips.solves", "count", float64(a.solves[maxbips])/passes, a.passes)
	add("baselines.maxbips.solve_share", "ratio", ratio(float64(a.solveTotal[maxbips]), epochT), epochs)
	add("baselines.steepest.solves", "count", float64(a.solves[steepest])/passes, a.passes)
	add("baselines.steepest.solve_share", "ratio", ratio(float64(a.solveTotal[steepest]), epochT), epochs)
	add("baselines.hold_share", "ratio", ratio(float64(a.holdTotal), epochT), epochs)

	add("par.fanout_efficiency", "ratio", median(a.fanoutEff), len(a.fanoutEff))
	add("par.critical_path_frac", "ratio", median(a.criticalPath), len(a.criticalPath))
	addDist("scenario.validate_hash_frac", "ratio", vhFrac)

	add("fault.events", "count", float64(a.faultEvents)/passes, a.passes)
	add("fault.dead_cores", "count", float64(a.deadCores)/passes, a.passes)
	add("fault.tick_share", "ratio", ratio(float64(a.faultTotal), epochT), epochs)

	add("obs.stack_overhead_frac", "ratio", median(a.obsOverhead), len(a.obsOverhead))
	add("obs.alloc_bytes_per_epoch", "B", median(a.obsAllocPerEp), len(a.obsAllocPerEp))
	return ms
}
