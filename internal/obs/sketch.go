package obs

import (
	"encoding/json"
	"math"
)

// Sketch is a streaming quantile estimator over non-negative measurements
// (latencies in ns, overshoot in W): a fixed array of geometric buckets
// (ratio sketchGamma between bucket edges, ~9% relative error) plus exact
// min/max/count/sum. Observe is O(1) — one log, one bucket increment —
// and Quantile walks the fixed bucket array, so per-observation cost never
// grows with the stream. The zero value is NOT ready; use NewSketch. A
// Sketch is not safe for concurrent use: per-run sketches are written by
// their run alone, and the registry's SharedSketch locks one.
type Sketch struct {
	counts []int64
	zero   int64 // observations <= sketchMinV (incl. exact zeros)
	count  int64
	min    float64
	max    float64
	sum    float64
}

const (
	// sketchMinV..sketchMaxV is the resolvable range; values at or below
	// the floor land in the zero bucket, values above the ceiling clamp to
	// the last bucket. The defaults cover sub-nanosecond latencies up to
	// ~1e12 (kiloseconds in ns).
	sketchMinV = 1e-6
	sketchMaxV = 1e12
	// sketchGamma is the bucket-edge ratio: relative quantile error is
	// about (gamma-1)/2.
	sketchGamma = 1.2
)

var (
	sketchLnGamma = math.Log(sketchGamma)
	sketchBuckets = int(math.Ceil(math.Log(sketchMaxV/sketchMinV)/sketchLnGamma)) + 1
)

// NewSketch returns an empty sketch.
func NewSketch() *Sketch {
	return &Sketch{counts: make([]int64, sketchBuckets), min: math.Inf(1), max: math.Inf(-1)}
}

// Observe records one value. Negative and NaN values are counted in the
// zero bucket (count and sum still advance, so NaN poisoning stays visible
// through Sum). O(1).
func (s *Sketch) Observe(v float64) {
	s.count++
	s.sum += v
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	if !(v > sketchMinV) { // negated: catches v <= minV and NaN
		s.zero++
		return
	}
	i := int(math.Log(v/sketchMinV) / sketchLnGamma)
	if i >= len(s.counts) {
		i = len(s.counts) - 1
	}
	s.counts[i]++
}

// Count returns the number of observations.
func (s *Sketch) Count() int64 { return s.count }

// Sum returns the running sum.
func (s *Sketch) Sum() float64 { return s.sum }

// Max returns the largest observed value (0 when empty).
func (s *Sketch) Max() float64 {
	if s.count == 0 {
		return 0
	}
	return s.max
}

// Min returns the smallest observed value (0 when empty).
func (s *Sketch) Min() float64 {
	if s.count == 0 {
		return 0
	}
	return s.min
}

// Mean returns the average observed value (0 when empty).
func (s *Sketch) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Quantile estimates the q-quantile (q clamped to [0,1]); the estimate is
// the geometric midpoint of the bucket holding the target rank, clamped to
// the exact observed [min, max].
func (s *Sketch) Quantile(q float64) float64 {
	if s.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(s.count)
	if rank < 1 {
		rank = 1
	}
	est := s.max
	if seen := float64(s.zero); seen >= rank {
		est = sketchMinV
	} else {
		cum := float64(s.zero)
		for i, c := range s.counts {
			if c == 0 {
				continue
			}
			cum += float64(c)
			if cum >= rank {
				est = sketchMinV * math.Exp((float64(i)+0.5)*sketchLnGamma)
				break
			}
		}
	}
	if est > s.max {
		est = s.max
	}
	if est < s.min {
		est = s.min
	}
	return est
}

// clone returns an independent copy of the sketch.
func (s *Sketch) clone() *Sketch {
	c := *s
	c.counts = append([]int64(nil), s.counts...)
	return &c
}

// cumulative calls f, in increasing order, with the upper edge of each
// non-empty bucket and the count of observations at or below it: the
// bucket series of the Prometheus histogram exposition. The zero bucket's
// edge is the floor; the last bucket also holds values clamped from above
// the ceiling, so it has no finite edge and only the total counts it.
func (s *Sketch) cumulative(f func(le float64, cum int64) error) error {
	cum := s.zero
	if cum > 0 {
		if err := f(sketchMinV, cum); err != nil {
			return err
		}
	}
	for i, c := range s.counts[:len(s.counts)-1] {
		if c == 0 {
			continue
		}
		cum += c
		if err := f(sketchMinV*math.Exp(float64(i+1)*sketchLnGamma), cum); err != nil {
			return err
		}
	}
	return nil
}

// MarshalJSON renders the sketch as its summary: count, sum, min, max and
// the p50, p95 and p99 estimates. The bucket array stays internal.
func (s *Sketch) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Count int64   `json:"count"`
		Sum   float64 `json:"sum"`
		Min   float64 `json:"min"`
		Max   float64 `json:"max"`
		P50   float64 `json:"p50"`
		P95   float64 `json:"p95"`
		P99   float64 `json:"p99"`
	}{s.count, s.sum, s.Min(), s.Max(), s.Quantile(0.5), s.Quantile(0.95), s.Quantile(0.99)})
}
