package thermal

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 4, Default()); err == nil {
		t.Fatal("expected error for zero width")
	}
	if _, err := New(4, -1, Default()); err == nil {
		t.Fatal("expected error for negative height")
	}
	bad := Default()
	bad.NodeCapJPerK = 0
	if _, err := New(4, 4, bad); err == nil {
		t.Fatal("expected error for zero heat capacity")
	}
}

func TestInitialAtAmbient(t *testing.T) {
	m, err := New(4, 4, Default())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.Nodes(); i++ {
		if m.Temp(i) != Default().AmbientK {
			t.Fatalf("node %d starts at %v, want ambient", i, m.Temp(i))
		}
	}
}

func TestZeroPowerStaysAtAmbient(t *testing.T) {
	m, _ := New(4, 4, Default())
	p := make([]float64, m.Nodes())
	m.Step(p, 10)
	for i := 0; i < m.Nodes(); i++ {
		if math.Abs(m.Temp(i)-Default().AmbientK) > 1e-9 {
			t.Fatalf("node %d drifted to %v with zero power", i, m.Temp(i))
		}
	}
}

func TestSingleNodeSteadyStateAnalytic(t *testing.T) {
	// For a 1x1 grid there is no lateral path, so T = Tamb + P/Gv.
	p := Default()
	m, _ := New(1, 1, p)
	ss := m.SteadyState([]float64{2.0})
	want := p.AmbientK + 2.0/p.VerticalGWPerK
	if math.Abs(ss[0]-want) > 1e-6 {
		t.Fatalf("steady state = %v, want %v", ss[0], want)
	}
}

func TestEulerConvergesToSteadyState(t *testing.T) {
	m, _ := New(4, 4, Default())
	powers := make([]float64, m.Nodes())
	for i := range powers {
		powers[i] = float64(i%5) * 0.8
	}
	ss := m.SteadyState(powers)
	// Integrate long enough (many time constants) and compare.
	for i := 0; i < 100; i++ {
		m.Step(powers, 0.1)
	}
	for i := 0; i < m.Nodes(); i++ {
		if math.Abs(m.Temp(i)-ss[i]) > 0.01 {
			t.Fatalf("node %d: Euler %v vs steady state %v", i, m.Temp(i), ss[i])
		}
	}
}

func TestUniformPowerUniformTemp(t *testing.T) {
	m, _ := New(5, 5, Default())
	powers := make([]float64, m.Nodes())
	for i := range powers {
		powers[i] = 1.5
	}
	ss := m.SteadyState(powers)
	for i := 1; i < len(ss); i++ {
		if math.Abs(ss[i]-ss[0]) > 1e-6 {
			t.Fatalf("uniform power gave non-uniform steady state: %v vs %v", ss[i], ss[0])
		}
	}
	// And it should match the no-lateral analytic solution since no heat
	// flows laterally when everything is at the same temperature.
	want := Default().AmbientK + 1.5/Default().VerticalGWPerK
	if math.Abs(ss[0]-want) > 1e-6 {
		t.Fatalf("uniform steady state = %v, want %v", ss[0], want)
	}
}

func TestHotspotSpreadsToNeighbors(t *testing.T) {
	m, _ := New(3, 3, Default())
	powers := make([]float64, 9)
	powers[4] = 3.0 // centre node only
	ss := m.SteadyState(powers)
	if ss[4] <= ss[1] {
		t.Fatal("centre not hottest")
	}
	// Edge-adjacent neighbours must be warmer than corners.
	if ss[1] <= ss[0] {
		t.Fatalf("neighbour %v not warmer than corner %v", ss[1], ss[0])
	}
	// Everything above ambient.
	for i, v := range ss {
		if v < Default().AmbientK-1e-9 {
			t.Fatalf("node %d below ambient: %v", i, v)
		}
	}
}

func TestStepStableWithLargeDt(t *testing.T) {
	m, _ := New(4, 4, Default())
	powers := make([]float64, m.Nodes())
	for i := range powers {
		powers[i] = 3.5
	}
	m.Step(powers, 5.0) // far beyond the naive stability limit
	for i := 0; i < m.Nodes(); i++ {
		v := m.Temp(i)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("node %d diverged: %v", i, v)
		}
	}
}

func TestStepPanicsOnWrongLength(t *testing.T) {
	m, _ := New(2, 2, Default())
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-length power vector did not panic")
		}
	}()
	m.Step([]float64{1, 2}, 0.001)
}

func TestStepPanicsOnNegativeDt(t *testing.T) {
	m, _ := New(2, 2, Default())
	defer func() {
		if recover() == nil {
			t.Fatal("negative dt did not panic")
		}
	}()
	m.Step(make([]float64, 4), -0.1)
}

func TestResetRestoresAmbient(t *testing.T) {
	m, _ := New(2, 2, Default())
	powers := []float64{3, 3, 3, 3}
	m.Step(powers, 1)
	if m.MaxTemp() <= Default().AmbientK {
		t.Fatal("temperatures did not rise under power")
	}
	m.Reset()
	if m.MaxTemp() != Default().AmbientK {
		t.Fatal("Reset did not restore ambient")
	}
}

func TestTempsCopy(t *testing.T) {
	m, _ := New(2, 2, Default())
	ts := m.Temps(nil)
	ts[0] = 999
	if m.Temp(0) == 999 {
		t.Fatal("Temps returned aliased storage")
	}
	dst := make([]float64, 4)
	got := m.Temps(dst)
	if &got[0] != &dst[0] {
		t.Fatal("Temps did not reuse correctly-sized destination")
	}
}

func TestMeanTemp(t *testing.T) {
	m, _ := New(2, 1, Default())
	// Manually step one node hot.
	m.Step([]float64{4, 0}, 2)
	mean := m.MeanTemp()
	if mean <= Default().AmbientK || mean >= m.MaxTemp() {
		t.Fatalf("mean %v not between ambient and max %v", mean, m.MaxTemp())
	}
}

// Property: temperatures stay within [ambient, ambient + maxP/Gv] for any
// non-negative power assignment — the hottest node can never exceed the
// temperature it would reach with no lateral help.
func TestQuickTemperatureBounds(t *testing.T) {
	params := Default()
	f := func(raw []uint8, steps uint8) bool {
		m, err := New(3, 3, params)
		if err != nil {
			return false
		}
		powers := make([]float64, 9)
		maxP := 0.0
		for i := range powers {
			if len(raw) > 0 {
				powers[i] = float64(raw[i%len(raw)]%40) / 10.0
			}
			if powers[i] > maxP {
				maxP = powers[i]
			}
		}
		n := int(steps%20) + 1
		for s := 0; s < n; s++ {
			m.Step(powers, 0.05)
		}
		upper := params.AmbientK + maxP/params.VerticalGWPerK + 1e-6
		for i := 0; i < 9; i++ {
			v := m.Temp(i)
			if v < params.AmbientK-1e-6 || v > upper {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: steady state is independent of integration path (Step then
// SteadyState equals SteadyState from reset).
func TestQuickSteadyStateIsStateless(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		m, _ := New(2, 2, Default())
		powers := []float64{float64(a % 30), float64(b % 30), float64(c % 30), float64(d % 30)}
		for i := range powers {
			powers[i] /= 10
		}
		ss1 := m.SteadyState(powers)
		m.Step(powers, 0.3) // perturb state
		ss2 := m.SteadyState(powers)
		for i := range ss1 {
			if math.Abs(ss1[i]-ss2[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the network keeps the floorplan's mirror symmetries. A power
// map mirrored about the vertical axis (x ↔ W−1−x), or separately about
// the horizontal axis (y ↔ H−1−y), leaves the temperatures mirrored the
// same way after a few hundred steps. The 1e-9 K tolerance allows for the
// changed summation order of a node's neighbour terms.
func TestQuickMirrorSymmetry(t *testing.T) {
	f := func(w, h uint8, raw []uint8, steps uint8) bool {
		W, H := int(w%8)+1, int(h%8)+1
		mirrors := map[string]func(x, y int) int{
			"vertical":   func(x, y int) int { return y*W + W - 1 - x },
			"horizontal": func(x, y int) int { return (H-1-y)*W + x },
		}
		for axis, mirror := range mirrors {
			m, err := New(W, H, Default())
			if err != nil {
				return false
			}
			powers := make([]float64, W*H)
			for i := range powers {
				if len(raw) > 0 {
					powers[i] = float64(raw[i%len(raw)]%40) / 10.0
				}
			}
			// Each node takes its mirror image's power: the map is then
			// symmetric, since mirroring is an involution.
			for i := range powers {
				powers[mirror(i%W, i/W)] = powers[i]
			}
			for s := 0; s < 200+int(steps); s++ {
				m.Step(powers, 0.005)
			}
			for i := range powers {
				if d := math.Abs(m.Temp(i) - m.Temp(mirror(i%W, i/W))); d > 1e-9 {
					t.Logf("%s mirror of a %dx%d grid: node %d differs by %g K", axis, W, H, i, d)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkStep64Cores(b *testing.B) {
	m, _ := New(8, 8, Default())
	powers := make([]float64, 64)
	for i := range powers {
		powers[i] = 2.0
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step(powers, 0.001)
	}
}
