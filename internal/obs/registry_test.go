package obs

import (
	"fmt"
	"sync"
	"testing"
)

// TestRegistryConcurrent hammers get-or-create and recording from many
// goroutines; run under -race it proves the registry's hot paths are safe.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const (
		goroutines = 16
		perG       = 1000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Counter("shared").Inc()
				r.Counter(fmt.Sprintf("own.%d", g)).Add(2)
				r.Gauge("gauge").Set(float64(i))
				h, err := r.Histogram("hist", []float64{10, 100, 1000})
				if err != nil {
					t.Error(err)
					return
				}
				h.Observe(float64(i))
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()

	s := r.Snapshot()
	if got := s.Counters["shared"]; got != goroutines*perG {
		t.Errorf("shared counter = %d, want %d", got, goroutines*perG)
	}
	for g := 0; g < goroutines; g++ {
		if got := s.Counters[fmt.Sprintf("own.%d", g)]; got != 2*perG {
			t.Errorf("own.%d = %d, want %d", g, got, 2*perG)
		}
	}
	h := s.Histograms["hist"]
	if h.Count != goroutines*perG {
		t.Errorf("hist count = %d, want %d", h.Count, goroutines*perG)
	}
	// Sum of 16 × (0+1+…+999) accumulated via CAS must be exact: every
	// addend is an integer small enough for float64.
	want := float64(goroutines) * float64(perG-1) * float64(perG) / 2
	if h.Sum != want {
		t.Errorf("hist sum = %g, want %g", h.Sum, want)
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5 (negative deltas ignored)", got)
	}
}

// TestHistogramBounds pins the bucket semantics: bucket i is
// upper-inclusive at Bounds[i]; values above the last bound land in the
// overflow bucket.
func TestHistogramBounds(t *testing.T) {
	bounds := []float64{1, 10, 100}
	cases := []struct {
		v      float64
		bucket int
	}{
		{-5, 0},
		{0, 0},
		{1, 0}, // exactly on the first bound: inclusive
		{1.001, 1},
		{10, 1}, // exactly on a middle bound
		{10.5, 2},
		{100, 2},   // exactly on the last bound
		{100.1, 3}, // overflow
		{1e12, 3},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("v=%g", tc.v), func(t *testing.T) {
			h, err := NewHistogram(bounds)
			if err != nil {
				t.Fatal(err)
			}
			h.Observe(tc.v)
			s := h.snapshot()
			for i, n := range s.Counts {
				want := int64(0)
				if i == tc.bucket {
					want = 1
				}
				if n != want {
					t.Errorf("bucket %d count = %d, want %d", i, n, want)
				}
			}
			if s.Count != 1 || s.Sum != tc.v {
				t.Errorf("count=%d sum=%g, want 1, %g", s.Count, s.Sum, tc.v)
			}
		})
	}
}

func TestHistogramRejectsBadBounds(t *testing.T) {
	if _, err := NewHistogram(nil); err == nil {
		t.Error("empty bounds accepted")
	}
	if _, err := NewHistogram([]float64{1, 1}); err == nil {
		t.Error("non-increasing bounds accepted")
	}
	if _, err := (&Registry{hists: map[string]*Histogram{}}).Histogram("h", []float64{2, 1}); err == nil {
		t.Error("registry accepted decreasing bounds")
	}
}

func TestHistogramSnapshotMean(t *testing.T) {
	h, err := NewHistogram([]float64{10})
	if err != nil {
		t.Fatal(err)
	}
	if m := h.snapshot().Mean(); m != 0 {
		t.Errorf("empty mean = %g, want 0", m)
	}
	h.Observe(2)
	h.Observe(4)
	if m := h.snapshot().Mean(); m != 3 {
		t.Errorf("mean = %g, want 3", m)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g")
	if v := g.Value(); v != 0 {
		t.Errorf("unset gauge = %g, want 0", v)
	}
	g.Set(-3.5)
	if v := r.Snapshot().Gauges["g"]; v != -3.5 {
		t.Errorf("gauge = %g, want -3.5", v)
	}
	if r.Gauge("g") != g {
		t.Error("gauge handle not stable across lookups")
	}
}
