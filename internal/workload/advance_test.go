package workload

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// referenceAdvance is Process.Advance as one function, before its common
// case split off into an inlinable fast path: the oracle the split must
// match bit for bit.
func referenceAdvance(p *Process, dt float64) int {
	if dt < 0 {
		panic(fmt.Sprintf("workload: negative dt %g", dt))
	}
	changes := 0
	for dt >= p.remainingS {
		dt -= p.remainingS
		p.current = p.r.Choice(p.spec.Transitions[p.current])
		p.remainingS = p.drawDuration(p.current)
		changes++
	}
	p.remainingS -= dt
	return changes
}

// panicValue runs f and returns what it panicked with, or nil.
func panicValue(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// requireSameProcess fails unless got and want hold the same phase, the
// same remaining budget bits (NaN included) and the same RNG state.
func requireSameProcess(t *testing.T, step int, dt float64, got, want *Process) {
	t.Helper()
	if got.current != want.current || math.Float64bits(got.remainingS) != math.Float64bits(want.remainingS) || *got.r != *want.r {
		t.Fatalf("step %d (dt %v): Advance left phase %d remaining %v, reference phase %d remaining %v (rng equal %v)",
			step, dt, got.current, got.remainingS, want.current, want.remainingS, *got.r == *want.r)
	}
}

// TestAdvanceMatchesReference drives Advance and the reference side by
// side from one seed over every preset, with dt drawn from the cases that
// sit on either side of the fast path's test: zero (both signs), exactly
// the remaining budget, one ulp either side of it, tiny steps, ordinary
// steps and steps spanning several transitions. Return values and state
// must match bit for bit; then a NaN step, a step on the NaN budget it
// leaves, and negative steps, which must panic alike.
func TestAdvanceMatchesReference(t *testing.T) {
	const seed = 1
	drv := rng.New(seed)
	specs := []Spec{twoPhaseSpec()}
	for _, name := range PresetNames() {
		specs = append(specs, MustPreset(name))
	}
	for _, spec := range specs {
		t.Run(spec.Name, func(t *testing.T) {
			got, err := NewProcess(spec, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			want, _ := NewProcess(spec, rng.New(seed))
			maxDur := 0.0
			for _, ph := range spec.Phases {
				maxDur = math.Max(maxDur, ph.MeanDurS*(1+ph.DurJitter))
			}
			fastHits := 0
			for step := 0; step < 5000; step++ {
				rem := want.remainingS
				var dt float64
				switch drv.Intn(9) {
				case 0:
					dt = 0
				case 1:
					dt = math.Copysign(0, -1)
				case 2:
					dt = rem
				case 3:
					dt = math.Nextafter(rem, 0)
				case 4:
					dt = math.Nextafter(rem, math.Inf(1))
				case 5:
					dt = math.SmallestNonzeroFloat64
				case 6:
					dt = rem * 1e-12 * drv.Float64()
				case 7:
					dt = rem * drv.Float64()
				case 8:
					dt = rem + 5*maxDur*drv.Float64()
				}
				if dt < rem {
					fastHits++
				}
				gn, wn := got.Advance(dt), referenceAdvance(want, dt)
				if gn != wn {
					t.Fatalf("step %d (dt %v, remaining %v): Advance returned %d, reference %d", step, dt, rem, gn, wn)
				}
				requireSameProcess(t, step, dt, got, want)
			}
			if fastHits == 0 {
				t.Fatal("no step took the fast path")
			}

			for _, dt := range []float64{-1, -math.SmallestNonzeroFloat64, math.Inf(-1)} {
				gp := panicValue(func() { got.Advance(dt) })
				wp := panicValue(func() { referenceAdvance(want, dt) })
				if gp == nil || gp != wp {
					t.Fatalf("Advance(%v) panicked with %v, reference with %v", dt, gp, wp)
				}
				requireSameProcess(t, -1, dt, got, want)
			}

			// NaN fails the fast test and leaves a NaN budget, which the
			// next ordinary step must also route to the general path.
			for step, dt := range []float64{math.NaN(), 1e-3, 0} {
				if gn, wn := got.Advance(dt), referenceAdvance(want, dt); gn != wn {
					t.Fatalf("NaN step %d (dt %v): Advance returned %d, reference %d", step, dt, gn, wn)
				}
				requireSameProcess(t, step, dt, got, want)
			}
		})
	}
}
