package ledger

import (
	"fmt"
	"sort"
	"strings"
)

// Metric directions for regression judgement. HigherBetter regresses when
// the candidate drops, LowerBetter when it rises; Informational metrics
// are reported but never flagged.
const (
	HigherBetter  = +1
	LowerBetter   = -1
	Informational = 0
)

// metricClass describes one judged metric: its direction and whether it
// is derived from wall-clock time (host-dependent, judged only on
// explicit request — identical-spec re-runs may jitter on these, and the
// observatory's default must be "identical spec ⇒ zero regressions").
type metricClass struct {
	direction int
	wallClock bool
}

// metricClasses is the judged-metric registry. Metrics not listed are
// treated as informational, so an experimental metric never gates CI by
// accident.
var metricClasses = map[string]metricClass{
	"bips":           {HigherBetter, false},
	"bips_per_w":     {HigherBetter, false},
	"over_j":         {LowerBetter, false},
	"over_time_frac": {LowerBetter, false},
	"mean_w":         {Informational, false},
	"peak_w":         {Informational, false},
	"max_temp_k":     {Informational, false},
	"decide_p50_ns":  {LowerBetter, true},
	"decide_p99_ns":  {LowerBetter, true},
}

// MetricDirection returns the judgement direction for a metric name.
func MetricDirection(name string) int { return metricClasses[name].direction }

// MetricIsWallClock reports whether the metric is host-dependent.
func MetricIsWallClock(name string) bool { return metricClasses[name].wallClock }

// Delta is one metric comparison between a baseline and candidate run.
type Delta struct {
	// RunKey identifies the matched run pair (RunSummary.Key()).
	RunKey string
	Metric string
	Base   float64
	Cand   float64
	// RelChange is (cand-base)/|base|; 0 when base is 0.
	RelChange float64
	// Judged is true when the metric has a direction and was eligible
	// (wall-clock metrics only when requested); Regressed flags a judged
	// change beyond the threshold in the bad direction.
	Judged    bool
	Regressed bool
}

// String renders the delta for terminal output.
func (d Delta) String() string {
	mark := " "
	if d.Regressed {
		mark = "!"
	}
	return fmt.Sprintf("%s %-16s %-28s %12.6g -> %12.6g  (%+.2f%%)",
		mark, d.Metric, d.RunKey, d.Base, d.Cand, d.RelChange*100)
}

// CompareOptions tunes Compare.
type CompareOptions struct {
	// Threshold is the relative change beyond which a judged metric
	// regresses (e.g. 0.05 = 5%).
	Threshold float64
	// WallClock includes host-dependent metrics (decide_*) in judgement.
	// Off by default: deterministic metrics are bit-identical across
	// identical-spec runs, wall-clock ones are not.
	WallClock bool
}

// Compare diffs the run summaries of two records, matching runs by
// RunSummary.Key (controller, workload, seed, cores, budget and fault
// plan), and judges each shared metric.
// Runs present on only one side are reported via the second return value,
// and so is a key that more than one run holds on either side: a record
// written before runs carried their fault plan gives every run of a fault
// sweep one key, and pairing any one of them would compare unlike runs,
// so such a key is noted as ambiguous and not compared.
func Compare(base, cand Record, opts CompareOptions) ([]Delta, []string) {
	baseRuns, baseN := runsByKey(base.Runs)
	candRuns, candN := runsByKey(cand.Runs)
	var deltas []Delta
	var notes []string
	for key, cs := range candRuns {
		switch {
		case baseN[key] == 0:
			notes = append(notes, fmt.Sprintf("run %s only in candidate %s", key, cand.ID))
		case baseN[key] > 1 || candN[key] > 1:
			notes = append(notes, fmt.Sprintf("run %s ambiguous: %d runs in baseline %s, %d in candidate %s; not compared",
				key, baseN[key], base.ID, candN[key], cand.ID))
		default:
			deltas = append(deltas, compareRun(key, baseRuns[key], cs, opts)...)
		}
	}
	for key := range baseRuns {
		if candN[key] == 0 {
			notes = append(notes, fmt.Sprintf("run %s only in baseline %s", key, base.ID))
		}
	}
	sort.Slice(deltas, func(i, j int) bool {
		if deltas[i].RunKey != deltas[j].RunKey {
			return deltas[i].RunKey < deltas[j].RunKey
		}
		return deltas[i].Metric < deltas[j].Metric
	})
	sort.Strings(notes)
	return deltas, notes
}

// runsByKey indexes runs by RunSummary.Key and counts the runs holding
// each key.
func runsByKey(runs []RunSummary) (map[string]RunSummary, map[string]int) {
	byKey := make(map[string]RunSummary, len(runs))
	n := make(map[string]int, len(runs))
	for _, s := range runs {
		k := s.Key()
		byKey[k] = s
		n[k]++
	}
	return byKey, n
}

func compareRun(key string, bs, cs RunSummary, opts CompareOptions) []Delta {
	names := map[string]bool{}
	for k := range bs.Metrics {
		names[k] = true
	}
	for k := range cs.Metrics {
		names[k] = true
	}
	var out []Delta
	for name := range names {
		bv, bok := bs.Metrics[name]
		cv, cok := cs.Metrics[name]
		if !bok || !cok {
			continue
		}
		d := Delta{RunKey: key, Metric: name, Base: bv, Cand: cv}
		if bv != 0 {
			d.RelChange = (cv - bv) / abs(bv)
		} else if cv != 0 {
			d.RelChange = 1
		}
		cls := metricClasses[name]
		if cls.direction != Informational && (!cls.wallClock || opts.WallClock) {
			d.Judged = true
			switch cls.direction {
			case HigherBetter:
				d.Regressed = d.RelChange < -opts.Threshold
			case LowerBetter:
				d.Regressed = d.RelChange > opts.Threshold
			}
		}
		out = append(out, d)
	}
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Regressions filters the regressed deltas.
func Regressions(deltas []Delta) []Delta {
	var out []Delta
	for _, d := range deltas {
		if d.Regressed {
			out = append(out, d)
		}
	}
	return out
}

// JudgedMetricNames lists the judged (non-informational) metrics, for
// help text and docs.
func JudgedMetricNames() string {
	var names []string
	for k, c := range metricClasses {
		if c.direction != Informational {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
