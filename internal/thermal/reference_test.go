package thermal

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// refEulerStep is the per-node forward-Euler step that the row-wise
// eulerStep replaced, kept as its oracle: every node recovers x and y from
// its index and sums its lateral differences through refNeighborDiff.
func refEulerStep(m *Model, powerW []float64, dt float64) {
	p := m.params
	for i := range m.temps {
		flow := powerW[i] -
			p.VerticalGWPerK*(m.temps[i]-p.AmbientK) -
			p.LateralGWPerK*refNeighborDiff(m, i)
		m.scratch[i] = m.temps[i] + dt*flow/p.NodeCapJPerK
	}
	m.temps, m.scratch = m.scratch, m.temps
}

// refNeighborDiff accumulates Σ_j (T_i − T_j) over node i's grid
// neighbours: left, right, up, down.
func refNeighborDiff(m *Model, i int) float64 {
	x, y := i%m.w, i/m.w
	ti := m.temps[i]
	d := 0.0
	if x > 0 {
		d += ti - m.temps[i-1]
	}
	if x < m.w-1 {
		d += ti - m.temps[i+1]
	}
	if y > 0 {
		d += ti - m.temps[i-m.w]
	}
	if y < m.h-1 {
		d += ti - m.temps[i+m.w]
	}
	return d
}

// refStep is Step's sub-stepping over refEulerStep.
func refStep(m *Model, powerW []float64, dt float64) {
	maxDt := m.maxStableDt()
	for dt > 0 {
		step := dt
		if step > maxDt {
			step = maxDt
		}
		refEulerStep(m, powerW, step)
		dt -= step
	}
}

// TestEulerStepMatchesReference holds Step to the per-node reference bit
// for bit on degenerate, narrow and square grids under random powers,
// with an epoch that Step splits into several Euler sub-steps. The grids
// start from random temperatures between 1 and 1000 K. Within one binade
// every neighbour difference is a multiple of the same ulp and their sum
// is exact in any order, so only temperatures spread over several binades
// let the order of a node's neighbour additions show in the result.
func TestEulerStepMatchesReference(t *testing.T) {
	const dt = 0.05
	r := rng.New(5)
	for _, g := range []struct{ w, h int }{{1, 1}, {1, 7}, {7, 1}, {3, 5}, {32, 32}} {
		m, err := New(g.w, g.h, Default())
		if err != nil {
			t.Fatal(err)
		}
		if subs := dt / m.maxStableDt(); subs < 3 {
			t.Fatalf("dt %g takes %.1f sub-steps, want several", dt, subs)
		}
		for i := range m.temps {
			m.temps[i] = math.Pow(10, 3*r.Float64())
		}
		ref, _ := New(g.w, g.h, Default())
		copy(ref.temps, m.temps)
		powers := make([]float64, m.Nodes())
		for epoch := 0; epoch < 20; epoch++ {
			for i := range powers {
				powers[i] = 4 * r.Float64()
			}
			m.Step(powers, dt)
			refStep(ref, powers, dt)
			for i := range powers {
				if got, want := m.Temp(i), ref.Temp(i); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%dx%d grid, epoch %d, node %d: Step %v, reference %v", g.w, g.h, epoch, i, got, want)
				}
			}
		}
	}
}
