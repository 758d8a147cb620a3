package sim

import (
	"fmt"
	"io"

	"repro/internal/plot"
)

// epsilonOverJ is the floor used when reporting throughput per
// over-the-budget joule: one epoch at one watt of overshoot, the smallest
// overshoot the harness can resolve.
const epsilonOverJ = 1e-3

// WriteSummaryTable renders results as an aligned text table with the
// metrics the paper's evaluation reports.
func WriteSummaryTable(w io.Writer, results []Result) error {
	header := []string{
		"controller", "workload", "cores", "budget(W)",
		"BIPS", "mean(W)", "peak(W)",
		"over(J)", "over-time(%)", "BIPS/overJ", "BIPS/W", "ctrl(ms)",
	}
	rows := [][]string{header}
	for _, r := range results {
		s := r.Summary
		rows = append(rows, []string{
			s.Controller,
			s.Workload,
			fmt.Sprintf("%d", s.Cores),
			fmt.Sprintf("%.1f", s.BudgetW),
			fmt.Sprintf("%.2f", s.BIPS()),
			fmt.Sprintf("%.1f", s.MeanW),
			fmt.Sprintf("%.1f", s.PeakW),
			fmt.Sprintf("%.3f", s.OverJ),
			fmt.Sprintf("%.2f", 100*s.OverTimeFrac()),
			fmt.Sprintf("%.2f", s.ThroughputPerOverJ(epsilonOverJ)),
			fmt.Sprintf("%.3f", s.EnergyEff()),
			fmt.Sprintf("%.3f", s.CtrlTimeS*1e3),
		})
	}
	return plot.WriteAligned(w, rows)
}

// WriteCSV renders results as CSV with one row per result.
func WriteCSV(w io.Writer, results []Result) error {
	if _, err := fmt.Fprintln(w,
		"controller,workload,cores,budget_w,bips,mean_w,peak_w,over_j,over_time_frac,bips_per_over_j,bips_per_w,ctrl_s,comm_j,max_temp_k"); err != nil {
		return err
	}
	for _, r := range results {
		s := r.Summary
		if _, err := fmt.Fprintf(w, "%s,%s,%d,%g,%g,%g,%g,%g,%g,%g,%g,%g,%g,%g\n",
			s.Controller, s.Workload, s.Cores, s.BudgetW,
			s.BIPS(), s.MeanW, s.PeakW, s.OverJ, s.OverTimeFrac(),
			s.ThroughputPerOverJ(epsilonOverJ), s.EnergyEff(),
			s.CtrlTimeS, s.CommEnergyJ, s.MaxTempK); err != nil {
			return err
		}
	}
	return nil
}

// WriteTrace renders a power trace as CSV.
func WriteTrace(w io.Writer, label string, trace []TracePoint) error {
	if _, err := fmt.Fprintln(w, "controller,time_s,power_w,budget_w,max_temp_k"); err != nil {
		return err
	}
	for _, p := range trace {
		if _, err := fmt.Fprintf(w, "%s,%.4f,%.3f,%.1f,%.2f\n",
			label, p.TimeS, p.PowerW, p.BudgetW, p.MaxTempK); err != nil {
			return err
		}
	}
	return nil
}

// WritePhaseTable renders the controller-phase breakdown (claim C4's
// inspectable form): how each profiled controller's decision time splits
// between local per-core learning and the global reallocation pass.
// Results without phase data are skipped; with none at all it writes
// nothing.
func WritePhaseTable(w io.Writer, results []Result) error {
	header := []string{
		"controller", "ctrl(ms)", "local(ms)", "global(ms)", "other(ms)", "local(%)", "global(%)",
	}
	rows := [][]string{header}
	for _, r := range results {
		s := r.Summary
		if s.CtrlLocalTimeS == 0 && s.CtrlGlobalTimeS == 0 {
			continue
		}
		other := s.CtrlTimeS - s.CtrlLocalTimeS - s.CtrlGlobalTimeS
		if other < 0 {
			other = 0
		}
		pct := func(v float64) string {
			if s.CtrlTimeS <= 0 {
				return "-"
			}
			return fmt.Sprintf("%.1f", 100*v/s.CtrlTimeS)
		}
		rows = append(rows, []string{
			s.Controller,
			fmt.Sprintf("%.3f", s.CtrlTimeS*1e3),
			fmt.Sprintf("%.3f", s.CtrlLocalTimeS*1e3),
			fmt.Sprintf("%.3f", s.CtrlGlobalTimeS*1e3),
			fmt.Sprintf("%.3f", other*1e3),
			pct(s.CtrlLocalTimeS),
			pct(s.CtrlGlobalTimeS),
		})
	}
	if len(rows) == 1 {
		return nil
	}
	if _, err := fmt.Fprintln(w, "\ncontroller decision-time phase breakdown:"); err != nil {
		return err
	}
	return plot.WriteAligned(w, rows)
}
