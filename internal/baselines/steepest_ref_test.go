package baselines

import (
	"container/heap"
	"testing"

	"repro/internal/ctrl"
	"repro/internal/manycore"
	"repro/internal/vf"
)

// refSteepestDrop is SteepestDrop's solve on container/heap with one
// PowerAt call per level it visits, kept as the oracle: the solve on the
// package's index heap and per-core power fill must return exactly its
// levels, ties and NaN priorities included.
type refSteepestDrop struct {
	pred  ctrl.Predictor
	power []float64
	slots []refDemotion
	heap  refDemotionHeap
}

// refDemotion is a heap entry: demoting core from its current level saves
// dPower watts and loses dIPS; priority is power saved per throughput lost.
type refDemotion struct {
	core     int
	fromLvl  int
	dPowerW  float64
	dIPS     float64
	priority float64
}

type refDemotionHeap []*refDemotion

func (h refDemotionHeap) Len() int            { return len(h) }
func (h refDemotionHeap) Less(i, j int) bool  { return h[i].priority > h[j].priority }
func (h refDemotionHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refDemotionHeap) Push(x interface{}) { *h = append(*h, x.(*refDemotion)) }
func (h *refDemotionHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func (s *refSteepestDrop) solve(tel *manycore.Telemetry, budgetW float64, out []int) {
	n := len(tel.Cores)
	top := s.pred.VF.Levels() - 1
	s.power = make([]float64, n)
	s.slots = make([]refDemotion, n)
	s.heap = make(refDemotionHeap, 0, n)

	power := s.power[:n]
	total := s.pred.Power.UncoreW
	for i := 0; i < n; i++ {
		out[i] = top
		power[i] = s.pred.PowerAt(tel.Cores[i], top)
		total += power[i]
	}
	for i := 0; i < n; i++ {
		if d := &s.slots[i]; s.nextDemotion(d, tel, i, out[i], power[i]) {
			s.heap = append(s.heap, d)
		}
	}
	heap.Init(&s.heap)
	for total > budgetW && s.heap.Len() > 0 {
		d := heap.Pop(&s.heap).(*refDemotion)
		out[d.core] = d.fromLvl - 1
		power[d.core] -= d.dPowerW
		total -= d.dPowerW
		if s.nextDemotion(d, tel, d.core, out[d.core], power[d.core]) {
			heap.Push(&s.heap, d)
		}
	}
}

func (s *refSteepestDrop) nextDemotion(d *refDemotion, tel *manycore.Telemetry, i, lvl int, powerW float64) bool {
	if lvl == 0 {
		return false
	}
	pLow := s.pred.PowerAt(tel.Cores[i], lvl-1)
	dP := powerW - pLow
	dI := s.pred.IPSAt(tel.Cores[i], lvl) - s.pred.IPSAt(tel.Cores[i], lvl-1)
	prio := dP * 1e12
	if dI > 0 {
		prio = dP / dI
	}
	*d = refDemotion{core: i, fromLvl: lvl, dPowerW: dP, dIPS: dI, priority: prio}
	return true
}

// FuzzSteepestDropMatchesReference is the differential oracle for
// SteepestDrop: on the MaxBIPS fuzzer's frames (NaN, infinite, negative,
// zero and huge readings, exactly tied cores) and budgets, the solve
// returns exactly the container/heap solve's levels, and a controller
// reused across frames matches a fresh one.
func FuzzSteepestDropMatchesReference(f *testing.F) {
	f.Add([]byte{3, 60, 90, 40, 60, 5, 100, 20, 90, 60, 0x80, 0, 0, 0, 0}, byte(9), byte(20))
	f.Add([]byte{0, 0, 1, 2, 0, 7, 5, 6, 3, 4, 7, 6, 5, 130, 200}, byte(2), byte(3))
	f.Add([]byte{7, 6, 40, 40, 40, 7, 120, 40, 40, 40, 0x80, 0, 0, 0, 0, 0x80, 0, 0, 0, 0}, byte(40), byte(16))
	// Infinite power and IPS readings give NaN and infinite priorities.
	f.Add([]byte{4, 1, 90, 40, 60, 2, 1, 5, 10, 70, 6, 80, 1, 20, 90, 0x80, 0, 0, 0, 0, 5, 30, 100, 0, 50}, byte(30), byte(5))
	// NaN priorities beside finite ones: a heap that weighs a parent
	// against its left child before the two children pops another core.
	f.Add([]byte("000000\x0100000\x0100"), byte(0x1e), byte(5))
	f.Fuzz(func(t *testing.T, data []byte, budgetSel, stepSel byte) {
		table := vf.Default()
		p := predictor(t)
		s, err := NewSteepestDrop(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		for k, sel := range []byte{budgetSel, stepSel} {
			tel := fuzzFrame(data[min(k, len(data)):], table)
			n := len(tel.Cores)
			budget := fuzzBudget(sel, n, p.Power.UncoreW, 0.05)
			got, want := make([]int, n), make([]int, n)
			s.solve(tel, budget, got)
			(&refSteepestDrop{pred: p}).solve(tel, budget, want)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("frame %d core %d: level %d, container/heap solve %d\ngot  %v\nwant %v", k, i, got[i], want[i], got, want)
				}
			}
		}
	})
}

// TestSteepestDropMatchesReferenceOnChip: on 64-core frames of a ferret
// chip that SteepestDrop drives at 55 W, the solve returns exactly the
// container/heap solve's levels.
func TestSteepestDropMatchesReferenceOnChip(t *testing.T) {
	const budget = 55.0
	p := predictor(t)
	chip := ferretChip64(t)
	defer chip.Close()
	s, err := NewSteepestDrop(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, want := make([]int, 64), make([]int, 64)
	for e := 0; e < 300; e++ {
		tel := chip.Step(1e-3)
		s.solve(&tel, budget, got)
		(&refSteepestDrop{pred: p}).solve(&tel, budget, want)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("epoch %d core %d: level %d, container/heap solve %d", e, i, got[i], want[i])
			}
		}
		for i, l := range got {
			chip.SetLevel(i, l)
		}
	}
}
