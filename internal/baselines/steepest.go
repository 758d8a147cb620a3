package baselines

import (
	"container/heap"
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

	// scratch reused across decisions. A core has at most one pending
	// demotion, so each owns one slot and the heap holds pointers into
	// them.
	power []float64
	slots []demotion
	heap  demotionHeap
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

// demotion is a heap entry: demoting core from its current level saves
// dPower watts and loses dIPS; priority is power saved per throughput lost.
type demotion struct {
	core     int
	fromLvl  int
	dPowerW  float64
	dIPS     float64
	priority float64
}

type demotionHeap []*demotion

func (h demotionHeap) Len() int            { return len(h) }
func (h demotionHeap) Less(i, j int) bool  { return h[i].priority > h[j].priority }
func (h demotionHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *demotionHeap) Push(x interface{}) { *h = append(*h, x.(*demotion)) }
func (h *demotionHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

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
	top := s.pred.VF.Levels() - 1
	if len(s.slots) < n {
		s.power = make([]float64, n)
		s.slots = make([]demotion, n)
		s.heap = make(demotionHeap, 0, n)
	}

	// Start everything at the top and total up predicted power.
	power := s.power[:n]
	total := s.pred.Power.UncoreW
	for i := 0; i < n; i++ {
		out[i] = top
		power[i] = s.pred.PowerAt(tel.Cores[i], top)
		total += power[i]
	}

	s.heap = s.heap[:0]
	for i := 0; i < n; i++ {
		if d := &s.slots[i]; s.nextDemotion(d, tel, i, out[i], power[i]) {
			s.heap = append(s.heap, d)
		}
	}
	heap.Init(&s.heap)

	for total > budgetW && s.heap.Len() > 0 {
		d := heap.Pop(&s.heap).(*demotion)
		out[d.core] = d.fromLvl - 1
		power[d.core] -= d.dPowerW
		total -= d.dPowerW
		// The popped slot is out of the heap, so it takes the core's next
		// demotion.
		if s.nextDemotion(d, tel, d.core, out[d.core], power[d.core]) {
			heap.Push(&s.heap, d)
		}
	}
}

// nextDemotion fills d with demoting core i one step from lvl, where it
// draws powerW, and reports false when the core is already at the bottom.
//
//odrl:hotpath
func (s *SteepestDrop) nextDemotion(d *demotion, tel *manycore.Telemetry, i, lvl int, powerW float64) bool {
	if lvl == 0 {
		return false
	}
	pLow := s.pred.PowerAt(tel.Cores[i], lvl-1)
	dP := powerW - pLow
	dI := s.pred.IPSAt(tel.Cores[i], lvl) - s.pred.IPSAt(tel.Cores[i], lvl-1)
	prio := dP * 1e12 // losing no throughput: infinitely good
	if dI > 0 {
		prio = dP / dI
	}
	*d = demotion{core: i, fromLvl: lvl, dPowerW: dP, dIPS: dI, priority: prio}
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
