package baselines

import (
	"fmt"

	"repro/internal/ctrl"
	"repro/internal/manycore"
	"repro/internal/noc"
)

// SteepestDrop starts every core at the top VF level and repeatedly applies
// the single-step demotion that sheds the most predicted power per unit of
// predicted throughput lost, until the chip fits the budget. This is the
// greedy global heuristic of the steepest-drop family (Winter et al.),
// O((n·L) log n) per decision.
type SteepestDrop struct {
	pred    ctrl.Predictor
	cadence int

	epoch int
	last  []int

	// scratch reused across decisions: each core's predicted power per
	// level and at its current level, and its pending demotion (a core has
	// at most one): the power it sheds and its priority, power shed per
	// throughput lost. The heap holds the cores with one pending.
	levelW   []float64
	power    []float64
	shedW    []float64
	priority []float64
	heap     []int
}

// NewSteepestDrop builds the controller.
func NewSteepestDrop(pred ctrl.Predictor, cadence int) (*SteepestDrop, error) {
	if cadence < 1 {
		return nil, fmt.Errorf("baselines: cadence must be >= 1, got %d", cadence)
	}
	return &SteepestDrop{pred: pred, cadence: cadence}, nil
}

// Name implements ctrl.Controller.
func (s *SteepestDrop) Name() string { return "steepest-drop" }

// Decide implements ctrl.Controller.
func (s *SteepestDrop) Decide(tel *manycore.Telemetry, budgetW float64, out []int) {
	defer func() { s.epoch++ }()
	if s.last != nil && s.epoch%s.cadence != 0 {
		copy(out, s.last)
		return
	}
	s.solve(tel, budgetW, out)
	if s.last == nil {
		s.last = make([]int, len(out))
	}
	copy(s.last, out)
}

// solve writes the steepest-drop assignment into out.
//
//odrl:hotpath
func (s *SteepestDrop) solve(tel *manycore.Telemetry, budgetW float64, out []int) {
	n := len(tel.Cores)
	levels := s.pred.VF.Levels()
	if len(s.power) < n {
		s.levelW = make([]float64, n*levels)
		s.power = make([]float64, n)
		s.shedW = make([]float64, n)
		s.priority = make([]float64, n)
		s.heap = make([]int, 0, n)
	}

	// Start everything at the top and total up predicted power.
	power := s.power[:n]
	total := s.pred.Power.UncoreW
	for i := 0; i < n; i++ {
		row := s.levelW[i*levels : (i+1)*levels]
		s.pred.PowerLevels(tel.Cores[i], row)
		out[i] = levels - 1
		power[i] = row[levels-1]
		total += power[i]
	}

	s.heap = s.heap[:0]
	for i := 0; i < n; i++ {
		if s.nextDemotion(tel, i, out[i], power[i]) {
			s.heap = append(s.heap, i)
		}
	}
	for k := len(s.heap)/2 - 1; k >= 0; k-- {
		siftDown(s.heap, s.priority, k)
	}

	for total > budgetW && len(s.heap) > 0 {
		i, last := s.heap[0], len(s.heap)-1
		s.heap[0] = s.heap[last]
		s.heap = s.heap[:last]
		siftDown(s.heap, s.priority, 0)
		out[i]--
		power[i] -= s.shedW[i]
		total -= s.shedW[i]
		// The popped core is out of the heap, so it takes its next
		// demotion.
		if s.nextDemotion(tel, i, out[i], power[i]) {
			s.heap = append(s.heap, i)
			siftUp(s.heap, s.priority, len(s.heap)-1)
		}
	}
}

// nextDemotion sets core i's pending demotion one step down from lvl, where
// it draws powerW, and reports false when the core is already at the
// bottom.
//
//odrl:hotpath
func (s *SteepestDrop) nextDemotion(tel *manycore.Telemetry, i, lvl int, powerW float64) bool {
	if lvl == 0 {
		return false
	}
	levels := s.pred.VF.Levels()
	dP := powerW - s.levelW[i*levels+lvl-1]
	dI := s.pred.IPSAt(tel.Cores[i], lvl) - s.pred.IPSAt(tel.Cores[i], lvl-1)
	prio := dP * 1e12 // losing no throughput: infinitely good
	if dI > 0 {
		prio = dP / dI
	}
	s.shedW[i], s.priority[i] = dP, prio
	return true
}

// CommPerEpoch implements ctrl.Controller: gather + scatter per decision,
// amortised over the cadence.
func (s *SteepestDrop) CommPerEpoch(mesh *noc.Mesh) noc.Cost {
	g := mesh.GatherCost(mesh.Center())
	sc := mesh.ScatterCost(mesh.Center())
	k := float64(s.cadence)
	return noc.Cost{LatencyS: (g.LatencyS + sc.LatencyS) / k, EnergyJ: (g.EnergyJ + sc.EnergyJ) / k}
}
