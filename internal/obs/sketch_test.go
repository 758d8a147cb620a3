package obs

import (
	"math"
	"math/rand"
	"testing"
)

func TestSketchEmpty(t *testing.T) {
	s := NewSketch()
	if s.Count() != 0 || s.Quantile(0.5) != 0 || s.Max() != 0 || s.Min() != 0 || s.Mean() != 0 {
		t.Fatalf("empty sketch not all-zero: q50=%g max=%g", s.Quantile(0.5), s.Max())
	}
}

func TestSketchRelativeError(t *testing.T) {
	// Uniform values 1..10000: every quantile estimate must be within the
	// sketch's documented ~9% relative error plus the rank granularity.
	s := NewSketch()
	for i := 1; i <= 10000; i++ {
		s.Observe(float64(i))
	}
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0} {
		got := s.Quantile(q)
		want := q * 10000
		if rel := math.Abs(got-want) / want; rel > 0.12 {
			t.Fatalf("Quantile(%g) = %g, want ~%g (rel err %.3f)", q, got, want, rel)
		}
	}
	if s.Max() != 10000 || s.Min() != 1 {
		t.Fatalf("min/max = %g/%g, want 1/10000", s.Min(), s.Max())
	}
}

func TestSketchClampedToObservedRange(t *testing.T) {
	s := NewSketch()
	s.Observe(42)
	for _, q := range []float64{0, 0.5, 1} {
		if got := s.Quantile(q); got != 42 {
			t.Fatalf("single-value Quantile(%g) = %g, want exactly 42", q, got)
		}
	}
}

func TestSketchZeroAndNaN(t *testing.T) {
	s := NewSketch()
	s.Observe(0)
	s.Observe(-5)
	s.Observe(math.NaN())
	if s.Count() != 3 {
		t.Fatalf("count = %d, want 3", s.Count())
	}
	// All three land in the zero bucket; the median is the floor clamped to
	// the observed range.
	if got := s.Quantile(0.5); got > sketchMinV {
		t.Fatalf("Quantile(0.5) = %g, want <= %g", got, sketchMinV)
	}
	if !math.IsNaN(s.Sum()) {
		t.Fatal("NaN observation did not poison Sum — poisoning must stay visible")
	}
}

func TestSketchQuantileMonotone(t *testing.T) {
	s := NewSketch()
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		s.Observe(math.Exp(r.NormFloat64() * 3))
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.05 {
		got := s.Quantile(q)
		if got < prev {
			t.Fatalf("Quantile(%g) = %g < previous %g", q, got, prev)
		}
		prev = got
	}
}
