package ledger

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
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

// Compare diffs the run summaries of two records, pairing runs with
// PairRuns, and judges each shared metric. Runs present on only one side,
// and keys that more than one run holds, are reported via the second
// return value.
func Compare(base, cand Record, opts CompareOptions) ([]Delta, []string) {
	pairs, notes := PairRuns(base.Runs, cand.Runs, base.ID, cand.ID)
	var deltas []Delta
	for _, p := range pairs {
		bs := base.Runs[p[0]]
		deltas = append(deltas, compareRun(bs.Key(), bs, cand.Runs[p[1]], opts)...)
	}
	sort.Slice(deltas, func(i, j int) bool {
		if deltas[i].RunKey != deltas[j].RunKey {
			return deltas[i].RunKey < deltas[j].RunKey
		}
		return deltas[i].Metric < deltas[j].Metric
	})
	return deltas, notes
}

// PairRuns pairs a baseline's and a candidate's runs by RunSummary.Key
// (controller, workload, seed, cores, budget and fault plan), returning
// [baseIndex, candIndex] pairs in candidate order. A key held on one side
// only pairs nothing and is noted, and so is a key that more than one run
// holds on either side: a record written before runs carried their fault
// plan gives every run of a fault sweep one key, and pairing any one of
// them would compare unlike runs. baseID and candID name the records in
// the notes, which come sorted.
func PairRuns(base, cand []RunSummary, baseID, candID string) ([][2]int, []string) {
	baseAt, baseN, candN := map[string]int{}, map[string]int{}, map[string]int{}
	for i, s := range base {
		k := s.Key()
		baseAt[k] = i
		baseN[k]++
	}
	for _, s := range cand {
		candN[s.Key()]++
	}
	var pairs [][2]int
	var notes []string
	noted := map[string]bool{}
	for j, s := range cand {
		key := s.Key()
		switch {
		case noted[key]: // a repeated key is noted once
		case baseN[key] == 0:
			notes = append(notes, fmt.Sprintf("run %s only in candidate %s", key, candID))
		case baseN[key] > 1 || candN[key] > 1:
			notes = append(notes, fmt.Sprintf("run %s ambiguous: %d runs in baseline %s, %d in candidate %s; not compared",
				key, baseN[key], baseID, candN[key], candID))
		default:
			pairs = append(pairs, [2]int{baseAt[key], j})
		}
		noted[key] = true
	}
	for _, s := range base {
		if key := s.Key(); candN[key] == 0 && !noted[key] {
			notes = append(notes, fmt.Sprintf("run %s only in baseline %s", key, baseID))
			noted[key] = true
		}
	}
	sort.Strings(notes)
	return pairs, notes
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

// FieldDiff is one provenance field whose value differs between two
// records, rendered for display ("" when a record holds no value).
type FieldDiff struct {
	Field string
	A, B  string
}

// Provenance lists the provenance fields that differ between two records,
// in this order: tool, args, host, engine version, spec hash, then the
// run-key fields seed, fault plan, cores, budget, workload and
// controllers. A field over the record's scenarios or runs compares its
// distinct values in order of first appearance.
func Provenance(a, b Record) []FieldDiff {
	pa, pb := provenance(a), provenance(b)
	var out []FieldDiff
	for i := range pa {
		if pa[i].A != pb[i].A {
			out = append(out, FieldDiff{Field: pa[i].Field, A: pa[i].A, B: pb[i].A})
		}
	}
	return out
}

// provenance renders one record's provenance fields, values in A.
func provenance(r Record) []FieldDiff {
	out := []FieldDiff{
		{Field: "tool", A: r.Tool}, {Field: "args", A: strings.Join(r.Args, " ")}, {Field: "host", A: fmt.Sprintf("%+v", r.Host)},
	}
	var engines, hashes []string
	for _, s := range r.Scenarios {
		engines = append(engines, s.EngineVersion)
		hashes = append(hashes, s.SpecHash[:min(len(s.SpecHash), 12)])
	}
	out = append(out, FieldDiff{Field: "engine version", A: distinct(engines)}, FieldDiff{Field: "spec hash", A: distinct(hashes)})
	runFields := []struct {
		name string
		get  func(RunSummary) string
	}{
		{"seed", func(s RunSummary) string { return strconv.FormatUint(s.Seed, 10) }},
		{"fault plan", func(s RunSummary) string { return s.FaultPlan }},
		{"cores", func(s RunSummary) string { return strconv.Itoa(s.Cores) }},
		{"budget", func(s RunSummary) string { return strconv.FormatFloat(s.BudgetW, 'g', -1, 64) }},
		{"workload", func(s RunSummary) string { return s.Workload }},
		{"controllers", func(s RunSummary) string { return s.Controller }},
	}
	for _, f := range runFields {
		vals := make([]string, len(r.Runs))
		for i, s := range r.Runs {
			vals[i] = f.get(s)
		}
		out = append(out, FieldDiff{Field: f.name, A: distinct(vals)})
	}
	return out
}

// distinct joins the non-empty distinct values in order of first
// appearance.
func distinct(vals []string) string {
	var out []string
	for _, v := range vals {
		if v != "" && !slices.Contains(out, v) {
			out = append(out, v)
		}
	}
	return strings.Join(out, ",")
}
