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
	powerW  []float64 // one core's predicted power per level
	costs   []int     // per-(core, level) cost in buckets, at most buckets+1
	values  []float64 // per-(core, level) predicted IPS
	minCost []int     // per-core cheapest level cost
	maxCost []int     // per-core dearest level cost
	dp      []float64
	choice  []int16

	// the bound's scratch (see bound), per core: the level its hull walk
	// has reached, the vertex ahead (-1 at the walk's end) and the slope
	// to it; then the heap of cores still walking and the sums S_i.
	picks, ahead []int
	rise         []float64
	heap         []int
	suffix       []float64 // suffix[i] = S_i, suffix[n] = 0
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

// solve runs the knapsack DP, writes the optimal assignment into out and
// returns the number of source cells it relaxed.
//
// Row i of the DP holds the best predicted IPS of cores 0…i−1 per power
// bucket. Only the buckets in [lo_i, hi_i] can lie on a completable
// assignment: lo_i is the cores' cheapest total, and hi_i is capped both
// by their dearest total and by the buckets the remaining cores need at
// minimum. A bucket outside the window feeds only buckets outside it, so
// the values and choices inside it, and hence the assignment, are exactly
// those of the full grid. The bound (see bound) then trims each window's
// ends to the cells whose best completion can still reach the predicted
// IPS of a known feasible assignment.
//
//odrl:hotpath
func (m *MaxBIPS) solve(tel *manycore.Telemetry, budgetW float64, out []int) (relaxed int) {
	n := len(tel.Cores)
	levels := m.pred.VF.Levels()
	coreBudget := budgetW - m.pred.Power.UncoreW
	if coreBudget <= 0 {
		for i := range out {
			out[i] = 0
		}
		return 0
	}
	buckets := int(coreBudget / m.resW)
	width := buckets + 1
	m.work += uint64(n) * uint64(width) * uint64(levels)

	// Per-(core, level) predicted cost in buckets and value in IPS. A cost
	// is clamped to buckets+1: a level that cannot fit still cannot, and
	// bucket arithmetic cannot overflow.
	if len(m.suffix) <= n {
		m.powerW = make([]float64, levels)
		m.costs = make([]int, n*levels)
		m.values = make([]float64, n*levels)
		m.minCost = make([]int, n)
		m.maxCost = make([]int, n)
		m.picks = make([]int, n)
		m.ahead = make([]int, n)
		m.rise = make([]float64, n)
		m.heap = make([]int, n)
		m.suffix = make([]float64, n+1)
	}
	costs, values := m.costs[:n*levels], m.values[:n*levels]
	minCost, maxCost := m.minCost[:n], m.maxCost[:n]
	powerW := m.powerW[:levels]
	minSum := 0
	for i := 0; i < n; i++ {
		lo, hi := width, 0
		m.pred.PowerLevels(tel.Cores[i], powerW)
		for l, p := range powerW {
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
			return 0
		}
	}
	lambda, threshold, prune := m.bound(n, levels, buckets, minSum)
	suffix := m.suffix[:n+1]

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
		if prune {
			for lo < hi && cur[lo]+lambda*float64(buckets-lo)+suffix[i] < threshold {
				lo++
			}
			for hi > lo && cur[hi]+lambda*float64(buckets-hi)+suffix[i] < threshold {
				hi--
			}
		}
		relaxed += hi - lo + 1
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
	return relaxed
}

// bound prepares solve's window trim from the bucket costs and values in
// scratch: a multiplier λ ≥ 0, suffix[i] = S_i, and the threshold
// LB − slack, where
//
//	S_i = Σ_{c ≥ i} max_l (v_{c,l} − λ·cost_{c,l})
//
// runs over the levels core c can take in a feasible assignment (cost at
// most buckets − minSum + minCost_c), and LB is the predicted IPS of a
// feasible assignment, added in core order from 0 as the DP adds. Source
// cell j of row i is kept only if dp_i[j] + λ·(buckets − j) + S_i ≥ LB −
// slack. ok is false, and solve keeps its plain windows, when λ, LB, an
// S_i or the slack is not finite.
//
// λ is the critical slope of the LP relaxation. Every core starts at its
// cheapest level, the best one among equally cheap levels, and walks up
// the upper hull of its (cost, IPS) points; a heap merges the walks,
// steepest edge first. The first edge that does not fit sets λ (0 when
// all fit). An edge that does not fit ends its core's walk, and the
// levels the walks reach are LB's assignment. Any λ ≥ 0 and any feasible
// assignment would keep the argument below; these make the test tight.
//
// Why the assignment stays bit-identical to the full grid's, ties
// included. A completion of cell (i, j) puts cores c ≥ i at levels whose
// costs sum to at most buckets − j, so its IPS, Σ v = λ·Σ cost + Σ (v −
// λ·cost), is at most λ·(its cost) + S_i ≤ λ·(buckets − j) + S_i. Float
// addition is monotone, so a DP cell holds at least the core-order float
// sum of any assignment reaching it, and the best final value OPT ≥ LB.
// Each cell on the full grid's backtracked path holds the first candidate
// (sources ascending, levels in index order) that reaches the best value
// of the cell it feeds, and completes along the path to OPT; so does any
// cell whose candidate ties one of them. In exact arithmetic such a cell
// passes the test; the slack absorbs the rounding. Trimming only removes
// candidates, and by monotone addition every value left is at most its
// full-grid value, so the path's cells keep their values and their first
// candidates, and the final scan still picks the first best bucket.
//
// The slack. Let u = 2^-53 and Z = Σ_c max_l v_{c,l} + λ·(n+1)·buckets,
// which bounds every quantity the test, S_i and the completion's DP sums
// handle. Between the exact inequality and the computed test lie the
// completion's n − i additions, S_i's n − i − 1, the v − λ·cost terms
// (together at most 2u·Z) and the test's four operations on quantities up
// to 3Z: at most (2n + 10)·u·Z. slack = (n+4)·2^-50·Z = (8n + 32)·u·Z is
// twice that, which covers the second-order terms and the rounding of Z
// itself. Its floor of 2^-1000 covers products λ·cost that underflow, each
// off by at most 2^-1075.
//
//odrl:hotpath
func (m *MaxBIPS) bound(n, levels, buckets, minSum int) (lambda, threshold float64, ok bool) {
	costs, values := m.costs[:n*levels], m.values[:n*levels]
	picks, ahead, rise, suffix := m.picks[:n], m.ahead[:n], m.rise[:n], m.suffix[:n+1]
	heap := m.heap[:0]
	spare := buckets - minSum // what the cheapest assignment leaves
	vmax := 0.0               // Σ_c max_l v_{c,l} over feasible levels
	for i := 0; i < n; i++ {
		cs, vs := costs[i*levels:(i+1)*levels], values[i*levels:(i+1)*levels]
		capI := spare + m.minCost[i]
		at, top := -1, 0.0
		for l, c := range cs {
			if c > capI {
				continue
			}
			top = max(top, vs[l])
			if at < 0 || c < cs[at] || c == cs[at] && vs[l] > vs[at] {
				at = l
			}
		}
		if vmax += top; !finite(vmax) {
			return 0, 0, false
		}
		picks[i] = at
		if ahead[i], rise[i] = hullStep(cs, vs, at, capI); ahead[i] >= 0 {
			heap = heap[:len(heap)+1]
			heap[len(heap)-1] = i
		}
	}
	for k := len(heap)/2 - 1; k >= 0; k-- {
		siftDown(heap, rise, k)
	}
	left, critical := spare, false
	for len(heap) > 0 {
		i := heap[0]
		cs, vs := costs[i*levels:(i+1)*levels], values[i*levels:(i+1)*levels]
		if dc := cs[ahead[i]] - cs[picks[i]]; dc <= left {
			left -= dc
			picks[i] = ahead[i]
			ahead[i], rise[i] = hullStep(cs, vs, picks[i], spare+m.minCost[i])
		} else {
			if !critical {
				lambda, critical = rise[i], true
			}
			ahead[i] = -1
		}
		if ahead[i] < 0 {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		siftDown(heap, rise, 0)
	}

	lb := 0.0
	for i, l := range picks {
		lb += values[i*levels+l]
	}
	suffix[n] = 0
	for i := n - 1; i >= 0; i-- {
		capI := spare + m.minCost[i]
		g := math.Inf(-1)
		for l, c := range costs[i*levels : (i+1)*levels] {
			if c <= capI {
				g = max(g, values[i*levels+l]-lambda*float64(c))
			}
		}
		suffix[i] = g + suffix[i+1]
	}
	z := vmax + lambda*float64(n+1)*float64(buckets)
	slack := max(z*float64(n+4)*0x1p-50, 0x1p-1000)
	// A non-finite S_i makes every S_k with k < i non-finite: g is finite.
	if !finite(z) || !finite(lb) || !finite(suffix[0]) {
		return 0, 0, false
	}
	return lambda, lb - slack, true
}

// hullStep returns the vertex after at on the upper hull of one core's
// (cost cs, IPS vs) points that cost at most capI buckets, and the slope
// of the edge to it: the steepest rise to a dearer level, the farthest
// among equal slopes. next is -1 at the hull's end.
//
//odrl:hotpath
func hullStep(cs []int, vs []float64, at, capI int) (next int, slope float64) {
	next = -1
	for l, c := range cs {
		if c <= cs[at] || c > capI || !(vs[l] > vs[at]) {
			continue
		}
		s := (vs[l] - vs[at]) / float64(c-cs[at])
		if next < 0 || s > slope || s == slope && c > cs[next] {
			next, slope = l, s
		}
	}
	return next, slope
}

// finite reports whether x is neither infinite nor NaN.
func finite(x float64) bool { return x-x == 0 }

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
