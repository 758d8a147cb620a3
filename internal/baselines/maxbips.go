// Package baselines implements the state-of-the-art power managers the
// paper compares OD-RL against: a MaxBIPS-class global optimiser, a
// steepest-drop greedy heuristic, a chip-level PID power capper (RAPL
// style), a static worst-case design point, and a simple reactive
// headroom heuristic.
//
// The prediction-based controllers (MaxBIPS, SteepestDrop) are faithful to
// their published formulations: they build per-core power/performance
// estimates from the last epoch's telemetry and solve a budget-constrained
// assignment. Their weakness is structural, not an implementation
// handicap — the telemetry describes the phase that just ended, so abrupt
// phase changes invalidate the predictions and the chip overshoots until
// the next decision, which at realistic decision costs arrives only every
// K epochs.
package baselines

import (
	"fmt"
	"math"

	"repro/internal/ctrl"
	"repro/internal/manycore"
	"repro/internal/noc"
)

// MaxBIPS maximises predicted aggregate instruction throughput subject to
// the chip power budget by solving a multiple-choice knapsack over
// (core, VF level) pairs with dynamic programming over discretised power.
// This reproduces the global optimisation style of Isci et al. (MICRO'06).
type MaxBIPS struct {
	pred ctrl.Predictor
	// CadenceEpochs is how many control epochs one decision is held for;
	// it models the decision latency of centralised optimisation.
	cadence int
	// resW is the DP power resolution in watts. Costs are rounded up, so
	// the solution never exceeds the budget under its own predictions.
	resW float64

	epoch int
	last  []int
	// work is the nominal DP cells evaluated so far (see NominalWork).
	work uint64

	// scratch reused across decisions
	costs   []int     // per-(core, level) cost in buckets, at most buckets+1
	values  []float64 // per-(core, level) predicted IPS
	minCost []int     // per-core cheapest level cost
	maxCost []int     // per-core dearest level cost
	dp      []float64
	choice  []int16
}

// unreachable marks a DP bucket no partial assignment reaches.
const unreachable = -math.MaxFloat64

// NewMaxBIPS builds the controller. cadence must be >= 1; resW > 0.
func NewMaxBIPS(pred ctrl.Predictor, cadence int, resW float64) (*MaxBIPS, error) {
	if cadence < 1 {
		return nil, fmt.Errorf("baselines: cadence must be >= 1, got %d", cadence)
	}
	if resW <= 0 {
		return nil, fmt.Errorf("baselines: resolution must be positive, got %g", resW)
	}
	return &MaxBIPS{pred: pred, cadence: cadence, resW: resW}, nil
}

// Name implements ctrl.Controller.
func (m *MaxBIPS) Name() string { return "maxbips" }

// NominalWork implements ctrl.WorkCounter: every solve counts Isci et
// al.'s full grid, cores × (buckets+1) × levels cells, however few of them
// solve visits. Held epochs count nothing.
func (m *MaxBIPS) NominalWork() uint64 { return m.work }

// Decide implements ctrl.Controller.
func (m *MaxBIPS) Decide(tel *manycore.Telemetry, budgetW float64, out []int) {
	defer func() { m.epoch++ }()
	if m.last != nil && m.epoch%m.cadence != 0 {
		copy(out, m.last)
		return
	}
	m.solve(tel, budgetW, out)
	if m.last == nil {
		m.last = make([]int, len(out))
	}
	copy(m.last, out)
}

// solve runs the knapsack DP and writes the optimal assignment into out.
//
// Row i of the DP holds the best predicted IPS of cores 0…i−1 per power
// bucket. Only the buckets in [lo_i, hi_i] can lie on a completable
// assignment: lo_i is the cores' cheapest total, and hi_i is capped both
// by their dearest total and by the buckets the remaining cores need at
// minimum. A bucket outside the window feeds only buckets outside it, so
// the values and choices inside it, and hence the assignment, are exactly
// those of the full grid.
//
//odrl:hotpath
func (m *MaxBIPS) solve(tel *manycore.Telemetry, budgetW float64, out []int) {
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
	width := buckets + 1
	m.work += uint64(n) * uint64(width) * uint64(levels)

	// Per-(core, level) predicted cost in buckets and value in IPS. A cost
	// is clamped to buckets+1: a level that cannot fit still cannot, and
	// bucket arithmetic cannot overflow.
	if cap(m.costs) < n*levels || cap(m.minCost) < n {
		m.costs = make([]int, n*levels)
		m.values = make([]float64, n*levels)
		m.minCost = make([]int, n)
		m.maxCost = make([]int, n)
	}
	costs, values := m.costs[:n*levels], m.values[:n*levels]
	minCost, maxCost := m.minCost[:n], m.maxCost[:n]
	minSum := 0
	for i := 0; i < n; i++ {
		lo, hi := width, 0
		for l := 0; l < levels; l++ {
			p := m.pred.PowerAt(tel.Cores[i], l)
			cost := int(math.Ceil(p / m.resW))
			if cost < 0 || math.IsNaN(p) {
				// int(Ceil(NaN)) is implementation-defined and a negative
				// cost would index dp out of range; corrupted predictions
				// degrade to "free", never to a crash.
				cost = 0
			}
			if cost > width {
				cost = width
			}
			costs[i*levels+l] = cost
			lo, hi = min(lo, cost), max(hi, cost)
			v := m.pred.IPSAt(tel.Cores[i], l)
			if math.IsNaN(v) {
				v = 0
			}
			values[i*levels+l] = v
		}
		minCost[i], maxCost[i] = lo, hi
		if minSum += lo; minSum > buckets {
			// Even all-minimum exceeds the budget: the best a VF
			// controller can do is pin everything to the bottom level.
			for i := range out {
				out[i] = 0
			}
			return
		}
	}

	if len(m.dp) < 2*width {
		m.dp = make([]float64, 2*width)
	}
	if len(m.choice) < n*width {
		m.choice = make([]int16, n*width)
	}
	cur := m.dp[:width]
	next := m.dp[width : 2*width]
	cur[0] = 0
	lo, hi := 0, 0
	rest := minSum // Σ minCost of the cores not yet placed
	for i := 0; i < n; i++ {
		rest -= minCost[i]
		nlo, nhi := lo+minCost[i], min(hi+maxCost[i], buckets-rest)
		row := m.choice[i*width : (i+1)*width]
		relaxRow(next[nlo:nhi+1], row[nlo:nhi+1], cur[lo:hi+1], lo-nlo,
			costs[i*levels:(i+1)*levels], values[i*levels:(i+1)*levels])
		cur, next = next, cur
		lo, hi = nlo, nhi
	}

	// Best final bucket, then backtrack the choices.
	bestB, bestV := -1, unreachable
	for b := lo; b <= hi; b++ {
		if cur[b] > bestV {
			bestB, bestV = b, cur[b]
		}
	}
	b := bestB
	for i := n - 1; i >= 0; i-- {
		l := int(m.choice[i*width+b])
		out[i] = l
		b -= costs[i*levels+l]
	}
}

// relaxRow fills one DP row window dst, and the level chosen for each of
// its buckets, from the previous row's window src. Source bucket k of src
// lands on dst[k+off+cost]. Sources are visited in ascending order and
// levels in index order, keeping only strict improvements, so ties break
// exactly as in the full grid. It is a function of its own because the
// compiler keeps its loop operands in registers here, not inside solve.
//
//odrl:hotpath
func relaxRow(dst []float64, choice []int16, src []float64, off int, costs []int, values []float64) {
	choice = choice[:len(dst)]
	values = values[:len(costs)]
	for j := range dst {
		dst[j] = unreachable
		choice[j] = -1
	}
	for k, v0 := range src {
		if v0 == unreachable {
			continue
		}
		for l, c := range costs {
			j := k + off + c
			if uint(j) >= uint(len(dst)) {
				continue
			}
			if v := v0 + values[l]; v > dst[j] {
				dst[j] = v
				choice[j] = int16(l)
			}
		}
	}
}

// CommPerEpoch implements ctrl.Controller: a full telemetry gather and
// command scatter per decision, amortised over the cadence.
func (m *MaxBIPS) CommPerEpoch(mesh *noc.Mesh) noc.Cost {
	g := mesh.GatherCost(mesh.Center())
	s := mesh.ScatterCost(mesh.Center())
	k := float64(m.cadence)
	return noc.Cost{LatencyS: (g.LatencyS + s.LatencyS) / k, EnergyJ: (g.EnergyJ + s.EnergyJ) / k}
}
