package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"time"

	"repro/internal/ctrl"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// unit is one untraced unit of work and what it measured.
type unit struct {
	wallS  float64 // host seconds
	normS  float64 // the same, normalised (see refLoop)
	allocB float64 // bytes allocated (runtime TotalAlloc delta)
	// ctrlS and normCtrlS are Summary.CtrlTimeS summed over a live unit's
	// jobs, in host and normalised seconds.
	ctrlS, normCtrlS float64
	digest           string
	// results holds one Result per job (sim.Run and fan-out units); rows
	// holds the table rows of an engine unit.
	results []sim.Result
	rows    [][]string
	// jobS is each job's wall time in a fan-out unit.
	jobS []float64
}

// timing is one timed call: its host seconds, the factor that normalises
// them (refScale), and the bytes it allocated.
type timing struct {
	wallS, scale, allocB float64
}

// timed runs fn between two heap snapshots, after a collection so every
// unit starts from the same heap state, bracketed by reference loops.
func timed(fn func() error) (timing, error) {
	var before, after runtime.MemStats
	r0 := refLoop()
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	err := fn()
	wallS := time.Since(t0).Seconds()
	runtime.ReadMemStats(&after)
	return timing{
		wallS:  wallS,
		scale:  refScale(r0, refLoop()),
		allocB: float64(after.TotalAlloc - before.TotalAlloc),
	}, err
}

// runUnit runs one unit of work the way users run it: sim.Run per job for
// a live workload (with its observability stack when obsOn),
// scenario.Engine.Run for a grid. Only those calls are timed; environments
// and controllers are built before them.
func (w workload) runUnit(obsOn bool) (unit, error) {
	var u unit
	if w.spec != nil {
		var eng scenario.Engine
		var tbl experiments.Table
		tm, err := timed(func() error {
			var err error
			tbl, _, err = eng.Run(*w.spec)
			return err
		})
		if err != nil {
			return u, err
		}
		u.wallS, u.normS, u.allocB = tm.wallS, tm.wallS*tm.scale, tm.allocB
		b, err := json.Marshal(tbl)
		if err != nil {
			return u, err
		}
		sum := sha256.Sum256(b)
		u.digest, u.rows = hex.EncodeToString(sum[:]), tbl.Rows
		return u, nil
	}
	h := sha256.New()
	for _, j := range w.jobs {
		res, tm, err := runJob(j, obsOn)
		if err != nil {
			return u, err
		}
		d, err := resultDigest(res)
		if err != nil {
			return u, err
		}
		h.Write([]byte(d))
		u.wallS += tm.wallS
		u.normS += tm.wallS * tm.scale
		u.allocB += tm.allocB
		u.ctrlS += res.Summary.CtrlTimeS
		u.normCtrlS += res.Summary.CtrlTimeS * tm.scale
		u.results = append(u.results, res)
	}
	u.digest = hex.EncodeToString(h.Sum(nil))
	return u, nil
}

// newRun builds the options and controller for one run of j, with j's
// observability stack when obsOn.
func newRun(j job, obsOn bool) (sim.Options, ctrl.Controller, error) {
	o := j.opts
	if obsOn && j.observed {
		o = withObs(o)
	}
	env, err := sim.EnvFor(o)
	if err != nil {
		return o, nil, err
	}
	c, err := sim.NewController(j.controller, env)
	return o, c, err
}

// runJob times one sim.Run of j.
func runJob(j job, obsOn bool) (res sim.Result, tm timing, err error) {
	o, c, err := newRun(j, obsOn)
	if err != nil {
		return res, tm, err
	}
	defer closeController(c)
	tm, err = timed(func() error {
		res, err = sim.Run(o, c)
		return err
	})
	return res, tm, err
}

// runFanout runs a grid's jobs through par.MapErr with the spec's worker
// count, timing each job: the fan-out scenario.Engine.Run performs, opened
// up so the par layer's load balance can be measured.
func (w workload) runFanout() (unit, error) {
	u := unit{results: make([]sim.Result, len(w.jobs)), jobS: make([]float64, len(w.jobs))}
	tm, err := timed(func() error {
		_, err := par.MapErr(w.spec.Workers, len(w.jobs), func(i int) (struct{}, error) {
			t0 := time.Now()
			o, c, err := newRun(w.jobs[i], false)
			if err != nil {
				return struct{}{}, err
			}
			defer closeController(c)
			u.results[i], err = sim.Run(o, c)
			u.jobS[i] = time.Since(t0).Seconds()
			return struct{}{}, err
		})
		return err
	})
	u.wallS, u.normS, u.allocB = tm.wallS, tm.wallS*tm.scale, tm.allocB
	return u, err
}

// resultDigest hashes every simulated output of a run: the Summary's
// deterministic fields (everything but the wall-clock controller times)
// and the final VF levels. A speed-only change must leave it unchanged.
func resultDigest(r sim.Result) (string, error) {
	s := r.Summary
	if err := s.Validate(); err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%d\x00", s.Controller, s.Workload, s.Cores)
	var buf [8]byte
	for _, v := range []float64{s.BudgetW, s.DurS, s.Instr, s.EnergyJ, s.OverJ,
		s.OverTimeS, s.PeakW, s.MeanW, s.MaxTempK, s.CommEnergyJ, s.CommLatencyS} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("non-finite summary field in %+v", s)
		}
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, l := range r.FinalLevels {
		binary.LittleEndian.PutUint64(buf[:], uint64(l))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// gridRow renders one job's summary as the comparison-table row the
// scenario engine emits for it.
func gridRow(j job, s metrics.Summary) []string {
	return []string{
		strconv.FormatUint(j.opts.Seed, 10), j.opts.Workload, j.controller,
		strconv.Itoa(s.Cores), cell(s.BudgetW),
		cell(s.BIPS()), cell(s.MeanW), cell(s.PeakW),
		cell(s.OverJ), cell(100 * s.OverTimeFrac()), cell(s.EnergyEff()),
	}
}

// cell formats a table value exactly as the scenario engine does.
func cell(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000 || v < 0.01:
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}
