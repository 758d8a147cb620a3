package power

import (
	"math"
	"testing"
)

// leakTestVoltages mirrors the default 8-level VF table's spread plus
// degenerate values.
var leakTestVoltages = []float64{0.55, 0.62, 0.71, 0.80, 0.89, 0.97, 1.06, 1.15}

// TestLUTLeakageBitEqual pins the contract the epoch kernel relies on:
// the LUT paths and Params.LeakageW must agree to the last bit at every
// level across a wide temperature range — not approximately, exactly,
// because the golden-file tests compare RL trajectories byte-for-byte.
// Both LUT paths are held to it: LeakageWAt per call, and the kernel's
// slab pass, TempFactors over every temperature at once with each factor
// finished by LeakageWFrom.
func TestLUTLeakageBitEqual(t *testing.T) {
	var temps []float64
	for tempK := 250.0; tempK <= 420.0; tempK += 0.37 {
		temps = append(temps, tempK)
	}
	factors := make([]float64, len(temps))
	for _, p := range []Params{Default(), {
		CeffF: 1e-9, LeakI0A: 0.7, VrefV: 1.0, TrefK: 300,
		LeakTempCoeffPerK: 0.035, LeakVoltageExp: 2.1, UncoreW: 1,
	}} {
		lut := NewLUT(p, leakTestVoltages)
		lut.TempFactors(factors, temps)
		for lev, v := range leakTestVoltages {
			for k, tempK := range temps {
				want := math.Float64bits(p.LeakageW(v, tempK))
				if got := math.Float64bits(lut.LeakageWAt(lev, tempK)); got != want {
					t.Fatalf("level %d temp %.2f: LeakageWAt %x != LeakageW %x", lev, tempK, got, want)
				}
				if got := math.Float64bits(lut.LeakageWFrom(lev, factors[k])); got != want {
					t.Fatalf("level %d temp %.2f: slab pass %x != LeakageW %x", lev, tempK, got, want)
				}
			}
		}
	}
}

// TestLUTFixedTempBitEqual: the thermal-off fast path must also be exact.
func TestLUTFixedTempBitEqual(t *testing.T) {
	p := Default()
	lut := NewLUT(p, leakTestVoltages)
	for _, tempK := range []float64{300, 318, 345.25, 400} {
		table := lut.FixedTempLeakageW(tempK)
		for lev, v := range leakTestVoltages {
			want := p.LeakageW(v, tempK)
			if math.Float64bits(table[lev]) != math.Float64bits(want) {
				t.Fatalf("level %d temp %g: fixed table %x != LeakageW %x", lev, tempK, table[lev], want)
			}
		}
	}
}

// TestLUTNonPositiveVoltage: degenerate voltages behave like LeakageW
// (zero), never NaN.
func TestLUTNonPositiveVoltage(t *testing.T) {
	p := Default()
	lut := NewLUT(p, []float64{0, -1, 1.0})
	if got := lut.LeakageWAt(0, 330); got != 0 {
		t.Fatalf("v=0 leakage = %g, want 0", got)
	}
	if got := lut.LeakageWAt(1, 330); got != 0 {
		t.Fatalf("v=-1 leakage = %g, want 0", got)
	}
	if got := lut.FixedTempLeakageW(330)[1]; got != 0 {
		t.Fatalf("v=-1 fixed leakage = %g, want 0", got)
	}
	if lut.Levels() != 3 {
		t.Fatalf("Levels() = %d, want 3", lut.Levels())
	}
}
