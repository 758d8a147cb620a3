package main

import (
	"encoding/json"
	"fmt"
	"io"
	"path"
	"slices"
	"sort"
	"strings"

	"repro/internal/obs/learn"
	"repro/internal/obs/ledger"
)

// sparkWidth is the learning-curve sparkline width in characters.
const sparkWidth = 60

// learnRun is one learning run read back from a ledger record: the
// learn.json report and the snapshot chain recorded beside it.
type learnRun struct {
	dir   string // artifact directory, e.g. learn/1-od-rl/
	rep   learn.Report
	snaps []learn.LoadedSnap
}

// loadLearnRuns reads every learning run a record holds, in the learn
// layer's run order. Each artifact is checked against its pin first, so no
// report is ever built from unverified bytes.
func loadLearnRuns(dir string, r ledger.Record) ([]*learnRun, error) {
	pins := make(map[string]ledger.Artifact, len(r.Artifacts))
	for _, a := range r.Artifacts {
		pins[a.Name] = a
	}
	read := func(name string) ([]byte, error) { return ledger.ReadArtifact(dir, r.ID, pins[name]) }
	var runs []*learnRun
	for _, a := range r.Artifacts {
		if !strings.HasPrefix(a.Name, "learn/") || path.Base(a.Name) != "learn.json" {
			continue
		}
		data, err := read(a.Name)
		if err != nil {
			return nil, err
		}
		lr := &learnRun{dir: path.Dir(a.Name) + "/"}
		if err := json.Unmarshal(data, &lr.rep); err != nil {
			return nil, fmt.Errorf("record %s: artifact %s: %w", r.ID, a.Name, err)
		}
		var snaps []string
		for _, s := range r.Artifacts {
			if strings.HasPrefix(s.Name, lr.dir) && strings.HasSuffix(s.Name, ".qsnap") {
				snaps = append(snaps, s.Name)
			}
		}
		if lr.snaps, err = learn.LoadSnapshots(snaps, read); err != nil {
			return nil, fmt.Errorf("record %s: %s: %w", r.ID, lr.dir, err)
		}
		runs = append(runs, lr)
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].rep.Summary.Run < runs[j].rep.Summary.Run })
	return runs, nil
}

// writeLearnReport prints one learning run's story: learning curves,
// per-agent convergence and the policy snapshot chain.
func writeLearnReport(w io.Writer, id string, lr *learnRun) {
	s := lr.rep.Summary
	m := s.Meta
	fmt.Fprintf(w, "== %s %s ==\n", id, lr.dir)
	fmt.Fprintf(w, "controller %s, workload %s, %d cores, budget %g W, seed %d\n",
		m.Controller, m.Workload, m.Cores, m.BudgetW, m.Seed)
	fmt.Fprintf(w, "epochs: %d learning epochs, %d live agents\n", s.Epochs, s.LiveAgents)
	if len(s.Curves) == 0 || len(s.Curves[0].Values) == 0 {
		fmt.Fprintln(w, "no learning telemetry (the run observed no learning epochs)")
		return
	}

	// The layer appends one point to every curve per emit, so they share
	// a length.
	fmt.Fprintf(w, "\nlearning curves (%d samples):\n", len(s.Curves[0].Values))
	for _, c := range s.Curves {
		fmt.Fprintf(w, "  %-14s %s  first %.4g  last %.4g\n", strings.TrimPrefix(c.Name, "learn."),
			sparkline(c.Values, sparkWidth), c.Values[0], c.Values[len(c.Values)-1])
	}
	fmt.Fprintf(w, "final: td_ema %.4g, td_p99 %.4g, churn %.4g, greedy_frac %.4g, coverage %.4g, epsilon %.4g, q_spread %.4g\n",
		s.TDErrEMA, s.TDErrP99, s.Churn, s.GreedyFrac, s.Coverage, s.Epsilon, s.QSpread)

	conv := lr.rep.Converged
	fmt.Fprintf(w, "\nconvergence: %d agents converged (%.1f%% of chip at run end)\n",
		len(conv), 100*s.ConvergedFrac)
	if len(conv) > 0 {
		epochsTo := make([]int, len(conv))
		for i, cv := range conv {
			epochsTo[i] = cv.EpochsToConverge
		}
		sort.Ints(epochsTo)
		fmt.Fprintf(w, "  epochs-to-converge: p50 %d, min %d, max %d\n",
			epochsTo[len(epochsTo)/2], epochsTo[0], epochsTo[len(epochsTo)-1])
		n := min(len(conv), 8)
		for _, cv := range conv[:n] {
			fmt.Fprintf(w, "  core %3d at epoch %6d (%d learning epochs, td_ema %.4f, epsilon %.3f)\n",
				cv.Core, cv.Epoch, cv.EpochsToConverge, cv.TDErrEMA, cv.Epsilon)
		}
		if len(conv) > n {
			fmt.Fprintf(w, "  ... and %d more\n", len(conv)-n)
		}
	}

	if len(lr.snaps) > 0 {
		first, last := lr.snaps[0], lr.snaps[len(lr.snaps)-1]
		fmt.Fprintf(w, "\npolicy snapshots: %d in %s (epochs %d..%d), shape %dx%dx%d, final %s\n",
			len(lr.snaps), lr.dir, first.Epoch, last.Epoch,
			last.Cores, last.States, last.Actions, last.Hash[:12])
	} else {
		fmt.Fprintln(w, "\npolicy snapshots: none recorded (-snapshot-every 0)")
	}
}

// writeLearnDiffs prints the learning section of a diff. Two records'
// learning runs pair directly when each record holds one, otherwise by
// RunSummary.Key, with unmatched and ambiguous keys noted as
// ledger.Compare notes them.
func writeLearnDiffs(w io.Writer, base, cand ledger.Record, a, b []*learnRun) {
	if len(a) == 1 && len(b) == 1 {
		fmt.Fprintln(w)
		writeLearnDiff(w, base.ID, cand.ID, a[0], b[0])
		return
	}
	summaries := func(runs []*learnRun) []ledger.RunSummary {
		out := make([]ledger.RunSummary, len(runs))
		for i, lr := range runs {
			m := lr.rep.Summary.Meta
			out[i] = ledger.RunSummary{Controller: m.Controller, Workload: m.Workload, Seed: m.Seed,
				Cores: m.Cores, BudgetW: m.BudgetW, FaultPlan: m.FaultPlan}
		}
		return out
	}
	pairs, notes := ledger.PairRuns(summaries(a), summaries(b), base.ID, cand.ID)
	for _, p := range pairs {
		fmt.Fprintln(w)
		writeLearnDiff(w, base.ID, cand.ID, a[p[0]], b[p[1]])
	}
	for _, n := range notes {
		fmt.Fprintln(w, "note: learning", n)
	}
}

// writeLearnDiff prints the cross-run comparison of two learning runs:
// final metric deltas, convergence counts, per-state greedy disagreement
// of the final policies and the first diverging snapshot.
func writeLearnDiff(w io.Writer, baseID, candID string, a, b *learnRun) {
	fmt.Fprintf(w, "== diff: %s %s vs %s %s ==\n", baseID, a.dir, candID, b.dir)
	sa, sb := a.rep.Summary, b.rep.Summary
	fmt.Fprintf(w, "%-14s %12s %12s %12s\n", "final metric", "A", "B", "delta")
	for _, row := range []struct {
		name   string
		va, vb float64
	}{
		{"td_ema", sa.TDErrEMA, sb.TDErrEMA},
		{"td_p99", sa.TDErrP99, sb.TDErrP99},
		{"churn", sa.Churn, sb.Churn},
		{"greedy_frac", sa.GreedyFrac, sb.GreedyFrac},
		{"converged", sa.ConvergedFrac, sb.ConvergedFrac},
		{"coverage", sa.Coverage, sb.Coverage},
		{"epsilon", sa.Epsilon, sb.Epsilon},
		{"q_spread", sa.QSpread, sb.QSpread},
	} {
		fmt.Fprintf(w, "%-14s %12.5g %12.5g %+12.5g\n", row.name, row.va, row.vb, row.vb-row.va)
	}
	fmt.Fprintf(w, "converged agents: A %d, B %d\n", len(a.rep.Converged), len(b.rep.Converged))

	if len(a.snaps) == 0 || len(b.snaps) == 0 {
		fmt.Fprintln(w, "policy diff: skipped (both runs need snapshots)")
		return
	}
	fa, fb := a.snaps[len(a.snaps)-1], b.snaps[len(b.snaps)-1]
	if fa.Cores != fb.Cores || fa.States != fb.States || fa.Actions != fb.Actions {
		fmt.Fprintln(w, "policy diff: skipped (snapshot shapes differ)")
		return
	}
	disagree, worst, worstN := greedyDisagreement(fa, fb)
	total := fa.Cores * fa.States
	fmt.Fprintf(w, "greedy-action disagreement (final policies): %d/%d core-states (%.1f%%)\n",
		disagree, total, 100*float64(disagree)/float64(total))
	if disagree > 0 {
		fmt.Fprintf(w, "  most divergent core: %d (%d/%d states)\n", worst, worstN, fa.States)
	}
	if e, ok := firstDivergence(a.snaps, b.snaps); ok {
		fmt.Fprintf(w, "first recorded policy divergence: epoch %d\n", e)
	} else {
		fmt.Fprintln(w, "policies identical at every common snapshot epoch")
	}
}

// greedyDisagreement counts (core, state) cells whose argmax action
// differs between two equally shaped policies, and names the core with the
// most; ties resolve to the lowest action index on both sides, so a
// disagreement is a real preference flip.
func greedyDisagreement(a, b learn.LoadedSnap) (total, worst, worstN int) {
	per := a.States * a.Actions
	for c := 0; c < a.Cores; c++ {
		n := 0
		for s := 0; s < a.States; s++ {
			off := c*per + s*a.Actions
			if argmax(a.Q[off:off+a.Actions]) != argmax(b.Q[off:off+b.Actions]) {
				n++
			}
		}
		total += n
		if n > worstN {
			worst, worstN = c, n
		}
	}
	return total, worst, worstN
}

func argmax(q []float64) int {
	best := 0
	for i, v := range q {
		if v > q[best] {
			best = i
		}
	}
	return best
}

// firstDivergence walks both snapshot chains over their common epochs and
// returns the first epoch whose stored policies differ. Content addressing
// makes the comparison a hash check.
func firstDivergence(a, b []learn.LoadedSnap) (int64, bool) {
	bh := make(map[int64]string, len(b))
	for _, s := range b {
		bh[s.Epoch] = s.Hash
	}
	for _, s := range a { // LoadSnapshots returns epoch order
		if h, ok := bh[s.Epoch]; ok && h != s.Hash {
			return s.Epoch, true
		}
	}
	return 0, false
}

// sparkline renders a non-empty vals as a block-character strip of at most
// width runes, bucketing by mean. A flat series renders as a run of the
// lowest block, so it never reads as mid-scale; the first and last values
// printed beside it give its level.
func sparkline(vals []float64, width int) string {
	blocks := []rune("▁▂▃▄▅▆▇█")
	if len(vals) < width {
		width = len(vals)
	}
	lo, hi := slices.Min(vals), slices.Max(vals)
	out := make([]rune, width)
	for i := 0; i < width; i++ {
		from := i * len(vals) / width
		to := (i + 1) * len(vals) / width
		if to <= from {
			to = from + 1
		}
		sum := 0.0
		for _, v := range vals[from:to] {
			sum += v
		}
		mean := sum / float64(to-from)
		idx := 0
		if hi > lo {
			idx = min(max(int((mean-lo)/(hi-lo)*float64(len(blocks)-1)), 0), len(blocks)-1)
		}
		out[i] = blocks[idx]
	}
	return string(out)
}
