package baselines

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/ctrl"
	"repro/internal/manycore"
	"repro/internal/vf"
)

// refMaxBIPS is MaxBIPS's original full-grid solve: every row of the DP
// spans all buckets 0…budget. The windowed solve must return exactly its
// assignments, ties included.
type refMaxBIPS struct {
	pred   ctrl.Predictor
	resW   float64
	dp     []float64
	choice []int16
}

// solve is the full-grid knapsack DP, kept verbatim as the oracle.
func (m *refMaxBIPS) solve(tel *manycore.Telemetry, budgetW float64, out []int) {
	n := len(tel.Cores)
	levels := m.pred.VF.Levels()
	coreBudget := budgetW - m.pred.Power.UncoreW
	if coreBudget <= 0 {
		for i := range out {
			out[i] = 0
		}
		return
	}
	buckets := int(coreBudget / m.resW)

	// Per-(core, level) predicted cost in buckets and value in IPS.
	costs := make([]int, n*levels)
	values := make([]float64, n*levels)
	for i := 0; i < n; i++ {
		for l := 0; l < levels; l++ {
			p := m.pred.PowerAt(tel.Cores[i], l)
			cost := int(math.Ceil(p / m.resW))
			if cost < 0 || math.IsNaN(p) {
				// int(Ceil(NaN)) is implementation-defined and a negative
				// cost would index dp out of range; corrupted predictions
				// degrade to "free", never to a crash.
				cost = 0
			}
			costs[i*levels+l] = cost
			v := m.pred.IPSAt(tel.Cores[i], l)
			if math.IsNaN(v) {
				v = 0
			}
			values[i*levels+l] = v
		}
	}

	const neg = math.MaxFloat64
	if len(m.dp) < 2*(buckets+1) {
		m.dp = make([]float64, 2*(buckets+1))
	}
	if len(m.choice) < n*(buckets+1) {
		m.choice = make([]int16, n*(buckets+1))
	}
	cur := m.dp[:buckets+1]
	next := m.dp[buckets+1 : 2*(buckets+1)]
	for b := range cur {
		cur[b] = -neg
	}
	cur[0] = 0

	feasible := true
	for i := 0; i < n && feasible; i++ {
		rowChoice := m.choice[i*(buckets+1) : (i+1)*(buckets+1)]
		for b := range next {
			next[b] = -neg
			rowChoice[b] = -1
		}
		any := false
		for b := 0; b <= buckets; b++ {
			if cur[b] == -neg {
				continue
			}
			for l := 0; l < levels; l++ {
				nb := b + costs[i*levels+l]
				if nb > buckets {
					continue
				}
				if v := cur[b] + values[i*levels+l]; v > next[nb] {
					next[nb] = v
					rowChoice[nb] = int16(l)
					any = true
				}
			}
		}
		if !any {
			feasible = false
		}
		cur, next = next, cur
	}

	if !feasible {
		// Even all-minimum exceeds the budget: the best a VF controller
		// can do is pin everything to the bottom level.
		for i := range out {
			out[i] = 0
		}
		return
	}

	// Best final bucket, then backtrack the choices.
	bestB, bestV := -1, -neg
	for b := 0; b <= buckets; b++ {
		if cur[b] > bestV {
			bestB, bestV = b, cur[b]
		}
	}
	b := bestB
	for i := n - 1; i >= 0; i-- {
		l := int(m.choice[i*(buckets+1)+b])
		out[i] = l
		b -= costs[i*m.pred.VF.Levels()+l]
	}
}

// fuzzFloat decodes one byte into a telemetry reading on the given scale,
// reserving the low codes for the readings a faulty sensor path produces.
func fuzzFloat(b byte, scale float64) float64 {
	switch b {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return -scale
	case 4:
		return 0
	case 5:
		return 1e300
	case 6:
		// About 2^63 buckets at the factory's 0.05 W resolution: a cost
		// within a budget's reach of MaxInt64.
		return 4.6116860184273868e17
	}
	return scale * float64(b) / 128
}

// fuzzFrame decodes up to 64 cores, five bytes each: level (the top bit
// copies the previous core instead, so values tie exactly), power, IPS,
// memory-boundedness and temperature.
func fuzzFrame(data []byte, table *vf.Table) *manycore.Telemetry {
	n := min(len(data)/5, 64)
	tel := &manycore.Telemetry{EpochS: 1e-3, Cores: make([]manycore.CoreTelemetry, n)}
	for i := range tel.Cores {
		d := data[5*i : 5*i+5]
		if d[0]&0x80 != 0 && i > 0 {
			tel.Cores[i] = tel.Cores[i-1]
			continue
		}
		lvl := int(d[0]) % table.Levels()
		op := table.Point(lvl)
		tempK := 300 + float64(d[4])/2
		if d[4] == 0 {
			tempK = math.NaN()
		}
		tel.Cores[i] = manycore.CoreTelemetry{
			Level: lvl, FreqHz: op.FreqHz, VoltageV: op.VoltageV,
			PowerW: fuzzFloat(d[1], 1), IPS: fuzzFloat(d[2], 2e9),
			MemBoundedness: fuzzFloat(d[3], 0.5), TempK: tempK,
		}
	}
	return tel
}

// fuzzBudget picks a chip budget: below, at and just above the uncore
// floor, or a per-core share for the rest of the codes.
func fuzzBudget(sel byte, cores int, uncoreW, resW float64) float64 {
	switch sel % 8 {
	case 0:
		return uncoreW - 1
	case 1:
		return uncoreW
	case 2:
		return uncoreW + resW/2
	case 3:
		return uncoreW + resW
	}
	return uncoreW + float64(cores)*float64(sel)/128
}

// predictedIPS sums the solver's own value of an assignment in core order,
// the order the DP accumulates it.
func predictedIPS(p ctrl.Predictor, tel *manycore.Telemetry, levels []int) float64 {
	sum := 0.0
	for i, l := range levels {
		if v := p.IPSAt(tel.Cores[i], l); !math.IsNaN(v) {
			sum += v
		}
	}
	return sum
}

// bucketCost is the solver's cost of one (core, level) pair in buckets.
func bucketCost(p ctrl.Predictor, ct manycore.CoreTelemetry, level int, resW float64) int {
	pw := p.PowerAt(ct, level)
	cost := int(math.Ceil(pw / resW))
	if cost < 0 || math.IsNaN(pw) {
		cost = 0
	}
	return cost
}

// fits reports whether an assignment's bucket costs total at most
// buckets; cheapest replaces every level by the core's cheapest one.
// Summing stops at the limit, so huge costs cannot overflow.
func fits(p ctrl.Predictor, tel *manycore.Telemetry, levels []int, cheapest bool, resW float64, buckets int) bool {
	sum := 0
	for i, l := range levels {
		cost := bucketCost(p, tel.Cores[i], l, resW)
		if cheapest {
			for k := 0; k < p.VF.Levels(); k++ {
				cost = min(cost, bucketCost(p, tel.Cores[i], k, resW))
			}
		}
		if cost > buckets-sum {
			return false
		}
		sum += cost
	}
	return true
}

// refSolve runs the reference and reports whether it panicked (the full
// grid's b+cost overflows for a cost within buckets of MaxInt64).
func refSolve(ref *refMaxBIPS, tel *manycore.Telemetry, budgetW float64, out []int) (panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	ref.solve(tel, budgetW, out)
	return false
}

// FuzzMaxBIPSMatchesReference is the differential oracle for the windowed
// DP: on frames of 0–64 cores with NaN, infinite, negative, zero and huge
// readings, duplicated cores and budgets around the uncore floor, the
// windowed solve returns exactly the full grid's levels. Where the full
// grid itself panics, the windowed solve must still return in-range
// levels. It also checks the solve's own contract: the assignment fits the
// budget's buckets, and its predicted IPS never falls as the budget rises.
func FuzzMaxBIPSMatchesReference(f *testing.F) {
	f.Add([]byte{3, 60, 90, 40, 60, 5, 100, 20, 90, 60, 0x80, 0, 0, 0, 0}, byte(9), byte(20), byte(1))
	f.Add([]byte{0, 0, 1, 2, 0, 7, 5, 6, 3, 4, 7, 6, 5, 130, 200}, byte(2), byte(3), byte(0))
	f.Add([]byte{7, 6, 40, 40, 40, 7, 120, 40, 40, 40, 0x80, 0, 0, 0, 0, 0x80, 0, 0, 0, 0}, byte(40), byte(16), byte(2))
	// 63 cores near 2 W at the top level, then one whose bottom level
	// costs about 2^63 buckets: the full grid's b+cost overflows there.
	overflow := bytes.Repeat([]byte{7, 255, 128, 10, 60}, 63)
	f.Add(append(overflow, 0, 6, 128, 10, 60), byte(255), byte(1), byte(0))
	f.Fuzz(func(t *testing.T, data []byte, budgetSel, stepSel, resSel byte) {
		table := vf.Default()
		p := predictor(t)
		resW := [...]float64{0.05, 0.01, 0.1, 0.37}[resSel%4]
		tel := fuzzFrame(data, table)
		n := len(tel.Cores)
		m, err := NewMaxBIPS(p, 1, resW)
		if err != nil {
			t.Fatal(err)
		}
		ref := &refMaxBIPS{pred: p, resW: resW}

		budget := fuzzBudget(budgetSel, n, p.Power.UncoreW, resW)
		got, want := make([]int, n), make([]int, n)
		m.solve(tel, budget, got)
		if refSolve(ref, tel, budget, want) {
			for i, l := range got {
				if l < 0 || l >= table.Levels() {
					t.Fatalf("core %d: level %d out of range", i, l)
				}
			}
		} else {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("core %d: windowed level %d, full grid %d\ngot  %v\nwant %v", i, got[i], want[i], got, want)
				}
			}
		}

		// A frame whose cheapest levels fit must get an assignment that
		// fits; any other frame pins every core to the bottom level.
		if coreBudget := budget - p.Power.UncoreW; coreBudget > 0 {
			buckets := int(coreBudget / resW)
			if fits(p, tel, got, true, resW, buckets) {
				if !fits(p, tel, got, false, resW, buckets) {
					t.Fatalf("assignment %v exceeds %d buckets", got, buckets)
				}
			} else {
				for i, l := range got {
					if l != 0 {
						t.Fatalf("infeasible frame: core %d at level %d, want 0", i, l)
					}
				}
			}
		}

		higher := make([]int, n)
		m.solve(tel, budget+float64(stepSel)*resW, higher)
		if lo, hi := predictedIPS(p, tel, got), predictedIPS(p, tel, higher); hi < lo {
			t.Fatalf("predicted IPS fell from %g to %g as the budget rose by %d buckets", lo, hi, stepSel)
		}
	})
}
