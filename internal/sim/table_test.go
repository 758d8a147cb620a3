package sim

import (
	"bytes"
	"testing"

	"repro/internal/metrics"
)

// tableTestResults is a fixed result set for the byte-exact table tests:
// a phase-profiled controller with local and global time, one whose phase
// split exceeds its total (other clamps to zero), and one without phase
// data (skipped by the phase table), with names of unequal width.
func tableTestResults() []Result {
	return []Result{
		{Summary: metrics.Summary{
			Controller: "od-rl", Workload: "mix", Cores: 64, BudgetW: 90, DurS: 8,
			Instr: 1.5e12, EnergyJ: 700, OverJ: 0.25, OverTimeS: 0.04, PeakW: 95.5, MeanW: 87.5,
			CtrlTimeS: 0.012, CtrlLocalTimeS: 0.009, CtrlGlobalTimeS: 0.002,
		}},
		{Summary: metrics.Summary{
			Controller: "maxbips", Workload: "mix", Cores: 64, BudgetW: 90, DurS: 8,
			Instr: 1.25e12, EnergyJ: 680, PeakW: 89.9, MeanW: 85,
			CtrlTimeS: 0.5, CtrlLocalTimeS: 0.3, CtrlGlobalTimeS: 0.25,
		}},
		{Summary: metrics.Summary{
			Controller: "pid", Workload: "canneal", Cores: 1024, BudgetW: 1200.5, DurS: 2,
			Instr: 3e13, EnergyJ: 2500, OverJ: 12.5, OverTimeS: 1, PeakW: 1400, MeanW: 1250,
			CtrlTimeS: 0.0001,
		}},
	}
}

// TestWriteSummaryTableBytes pins the summary table's bytes at fixed
// inputs, the last column's padding included.
func TestWriteSummaryTableBytes(t *testing.T) {
	const want = "controller  workload  cores  budget(W)  BIPS      mean(W)  peak(W)  over(J)  over-time(%)  BIPS/overJ  BIPS/W  ctrl(ms)\n" +
		"od-rl       mix       64     90.0       187.50    87.5     95.5     0.250    0.50          750.00      2.143   12.000  \n" +
		"maxbips     mix       64     90.0       156.25    85.0     89.9     0.000    0.00          156250.00   1.838   500.000 \n" +
		"pid         canneal   1024   1200.5     15000.00  1250.0   1400.0   12.500   50.00         1200.00     12.000  0.100   \n"
	var b bytes.Buffer
	if err := WriteSummaryTable(&b, tableTestResults()); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != want {
		t.Fatalf("summary table:\n%s\nwant:\n%s", got, want)
	}
}

// TestWritePhaseTableBytes pins the phase table's bytes at fixed inputs:
// the unprofiled run is skipped and a split over the total clamps other
// to zero.
func TestWritePhaseTableBytes(t *testing.T) {
	const want = "\n" +
		"controller decision-time phase breakdown:\n" +
		"controller  ctrl(ms)  local(ms)  global(ms)  other(ms)  local(%)  global(%)\n" +
		"od-rl       12.000    9.000      2.000       1.000      75.0      16.7     \n" +
		"maxbips     500.000   300.000    250.000     0.000      60.0      50.0     \n"
	var b bytes.Buffer
	if err := WritePhaseTable(&b, tableTestResults()); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != want {
		t.Fatalf("phase table:\n%s\nwant:\n%s", got, want)
	}
}
