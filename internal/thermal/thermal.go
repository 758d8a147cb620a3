// Package thermal implements a lumped RC thermal network for a many-core
// floorplan, playing the role HotSpot plays in the paper's toolchain.
//
// The chip is a W×H grid of thermal nodes, one per core. Each node exchanges
// heat vertically with the ambient (through the package and heat sink,
// conductance Gv) and laterally with its four grid neighbours (silicon
// spreading, conductance Gl):
//
//	C dT_i/dt = P_i − Gv·(T_i − T_amb) − Σ_j Gl·(T_i − T_j)
//
// Integration is forward Euler with automatic sub-stepping below the
// stability limit, so callers may use arbitrary control-epoch lengths.
// The model feeds the leakage–temperature loop in the power model and the
// TDP-validation experiment (F10).
package thermal

import (
	"fmt"
	"math"
)

// Params are the RC constants of the network.
type Params struct {
	AmbientK       float64 // effective local ambient (package/heatsink) temperature
	VerticalGWPerK float64 // node→ambient conductance (W/K)
	LateralGWPerK  float64 // node→neighbour conductance (W/K)
	NodeCapJPerK   float64 // node heat capacity (J/K)
}

// Default returns constants giving core-level thermal time constants of a
// few tens of milliseconds and ~40 K rise for a fully active 3.5 W core,
// consistent with published many-core thermal studies.
func Default() Params {
	return Params{
		AmbientK:       318, // 45 °C board-level ambient
		VerticalGWPerK: 0.10,
		LateralGWPerK:  0.50,
		NodeCapJPerK:   0.05,
	}
}

// Validate reports the first invalid constant.
func (p Params) Validate() error {
	switch {
	case p.AmbientK <= 0:
		return fmt.Errorf("thermal: AmbientK must be positive, got %g", p.AmbientK)
	case p.VerticalGWPerK <= 0:
		return fmt.Errorf("thermal: VerticalGWPerK must be positive, got %g", p.VerticalGWPerK)
	case p.LateralGWPerK < 0:
		return fmt.Errorf("thermal: LateralGWPerK must be non-negative, got %g", p.LateralGWPerK)
	case p.NodeCapJPerK <= 0:
		return fmt.Errorf("thermal: NodeCapJPerK must be positive, got %g", p.NodeCapJPerK)
	}
	return nil
}

// Model is the thermal state of one chip. Create with New.
type Model struct {
	w, h   int
	params Params
	temps  []float64
	// scratch avoids per-step allocation.
	scratch []float64
}

// New creates a W×H network with all nodes at ambient.
func New(w, h int, params Params) (*Model, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("thermal: invalid grid %dx%d", w, h)
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	m := &Model{
		w:       w,
		h:       h,
		params:  params,
		temps:   make([]float64, w*h),
		scratch: make([]float64, w*h),
	}
	m.Reset()
	return m, nil
}

// Nodes returns the number of thermal nodes (w*h).
func (m *Model) Nodes() int { return m.w * m.h }

// Reset returns every node to ambient.
func (m *Model) Reset() {
	for i := range m.temps {
		m.temps[i] = m.params.AmbientK
	}
}

// Temp returns the temperature of node i in kelvin.
func (m *Model) Temp(i int) float64 { return m.temps[i] }

// Temps copies all node temperatures into dst if it has the right length,
// otherwise allocates. It returns the slice used.
func (m *Model) Temps(dst []float64) []float64 {
	if len(dst) != len(m.temps) {
		dst = make([]float64, len(m.temps))
	}
	copy(dst, m.temps)
	return dst
}

// TempsView returns the model's internal temperature slab without
// copying. The slice is read-only for the caller and is invalidated by
// the next Step (forward Euler swaps its working buffers), so callers
// must re-fetch the view after every Step rather than hold one. The epoch
// kernel uses this to make the model's slab its per-core temperature
// slab directly, eliminating the per-epoch Temps copy.
func (m *Model) TempsView() []float64 { return m.temps }

// MaxTemp returns the hottest node temperature.
func (m *Model) MaxTemp() float64 {
	max := m.temps[0]
	for _, t := range m.temps[1:] {
		if t > max {
			max = t
		}
	}
	return max
}

// MeanTemp returns the average node temperature.
func (m *Model) MeanTemp() float64 {
	sum := 0.0
	for _, t := range m.temps {
		sum += t
	}
	return sum / float64(len(m.temps))
}

// maxStableDt returns the largest forward-Euler step that keeps the scheme
// stable: dt < C / (Gv + 4·Gl). We use half the limit for accuracy.
func (m *Model) maxStableDt() float64 {
	g := m.params.VerticalGWPerK + 4*m.params.LateralGWPerK
	return 0.5 * m.params.NodeCapJPerK / g
}

// Step advances the network by dt seconds with the given per-node power
// (watts). len(powerW) must equal Nodes(). dt must be non-negative.
func (m *Model) Step(powerW []float64, dt float64) {
	if len(powerW) != len(m.temps) {
		panic(fmt.Sprintf("thermal: power vector has %d entries, want %d", len(powerW), len(m.temps)))
	}
	if dt < 0 {
		panic(fmt.Sprintf("thermal: negative dt %g", dt))
	}
	maxDt := m.maxStableDt()
	for dt > 0 {
		step := dt
		if step > maxDt {
			step = maxDt
		}
		m.eulerStep(powerW, step)
		dt -= step
	}
}

// eulerStep advances every node by one forward-Euler step of dt. It walks
// the grid by rows, so a node's neighbours are tested on its x and y
// rather than recovered from its index by a divide. Each node's lateral
// term d starts at 0 and adds its left, right, up and down differences in
// that order; the order fixes the rounding, and so every temperature.
//
//odrl:hotpath
func (m *Model) eulerStep(powerW []float64, dt float64) {
	p := m.params
	w, h := m.w, m.h
	temps, next := m.temps, m.scratch
	powerW = powerW[:len(temps)]
	next = next[:len(temps)]
	for y := 0; y < h; y++ {
		row := y * w
		for x := 0; x < w; x++ {
			i := row + x
			ti := temps[i]
			d := 0.0
			if x > 0 {
				d += ti - temps[i-1]
			}
			if x < w-1 {
				d += ti - temps[i+1]
			}
			if y > 0 {
				d += ti - temps[i-w]
			}
			if y < h-1 {
				d += ti - temps[i+w]
			}
			flow := powerW[i] -
				p.VerticalGWPerK*(ti-p.AmbientK) -
				p.LateralGWPerK*d
			next[i] = ti + dt*flow/p.NodeCapJPerK
		}
	}
	m.temps, m.scratch = next, temps
}

// SteadyState returns the equilibrium temperatures for constant per-node
// power, solved by Gauss–Seidel iteration. The model's state is not
// modified.
func (m *Model) SteadyState(powerW []float64) []float64 {
	if len(powerW) != len(m.temps) {
		panic(fmt.Sprintf("thermal: power vector has %d entries, want %d", len(powerW), len(m.temps)))
	}
	p := m.params
	t := make([]float64, len(m.temps))
	for i := range t {
		t[i] = p.AmbientK
	}
	for iter := 0; iter < 10000; iter++ {
		maxDelta := 0.0
		for i := range t {
			x, y := i%m.w, i/m.w
			gSum := p.VerticalGWPerK
			tSum := p.VerticalGWPerK * p.AmbientK
			add := func(j int) {
				gSum += p.LateralGWPerK
				tSum += p.LateralGWPerK * t[j]
			}
			if x > 0 {
				add(i - 1)
			}
			if x < m.w-1 {
				add(i + 1)
			}
			if y > 0 {
				add(i - m.w)
			}
			if y < m.h-1 {
				add(i + m.w)
			}
			next := (powerW[i] + tSum) / gSum
			if d := math.Abs(next - t[i]); d > maxDelta {
				maxDelta = d
			}
			t[i] = next
		}
		if maxDelta < 1e-9 {
			break
		}
	}
	return t
}
