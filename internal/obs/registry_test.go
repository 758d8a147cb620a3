package obs

import (
	"fmt"
	"math"
	"strconv"
	"strings"
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
				r.Sketch("sketch").Observe(float64(i))
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
	sk := s.Sketches["sketch"]
	if sk.Count() != goroutines*perG {
		t.Errorf("sketch count = %d, want %d", sk.Count(), goroutines*perG)
	}
	// Sum of 16 × (0+1+…+999) must be exact in any interleaving: every
	// partial sum is an integer small enough for float64.
	want := float64(goroutines) * float64(perG-1) * float64(perG) / 2
	if sk.Sum() != want {
		t.Errorf("sketch sum = %g, want %g", sk.Sum(), want)
	}
	if sk.Min() != 0 || sk.Max() != perG-1 {
		t.Errorf("sketch min/max = %g/%g, want 0/%d", sk.Min(), sk.Max(), perG-1)
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

// TestHistogramBounds pins the Prometheus histogram a registry sketch
// exposes: a lone observation is counted in exactly one finite le bucket,
// then in +Inf. That le is the upper edge of the observation's sketch
// bucket (the floor's, for values at or below it), so it lies within one
// bucket ratio above the value.
func TestHistogramBounds(t *testing.T) {
	for _, v := range []float64{-5, 0, 1, 1.001, 10, 10.5, 100, 100.1, 1e12} {
		t.Run(fmt.Sprintf("v=%g", v), func(t *testing.T) {
			r := NewRegistry()
			r.Sketch("h").Observe(v)
			var b strings.Builder
			if err := WritePrometheus(&b, r.Snapshot()); err != nil {
				t.Fatal(err)
			}
			var buckets []string
			for _, line := range strings.Split(b.String(), "\n") {
				if rest, ok := strings.CutPrefix(line, `h_bucket{le="`); ok {
					buckets = append(buckets, rest)
				}
			}
			if len(buckets) != 2 || buckets[1] != `+Inf"} 1` || !strings.HasSuffix(buckets[0], `"} 1`) {
				t.Fatalf("buckets %q, want one finite le then +Inf, each counting 1", buckets)
			}
			le, err := strconv.ParseFloat(strings.TrimSuffix(buckets[0], `"} 1`), 64)
			if err != nil {
				t.Fatal(err)
			}
			if lo := math.Max(v, sketchMinV); le < lo || le > lo*sketchGamma {
				t.Fatalf("le %g, want in [%g, %g]", le, lo, lo*sketchGamma)
			}
			if want := "h_sum " + promFloat(v) + "\nh_count 1\n"; !strings.Contains(b.String(), want) {
				t.Fatalf("exposition lacks %q:\n%s", want, b.String())
			}
		})
	}
}

// TestHistogramSnapshotMean: a registry snapshot's sketch reports the mean
// of what was observed (0 when empty), and is a copy that later
// observations leave alone.
func TestHistogramSnapshotMean(t *testing.T) {
	r := NewRegistry()
	sk := r.Sketch("h")
	empty := r.Snapshot().Sketches["h"]
	if m := empty.Mean(); m != 0 {
		t.Errorf("empty mean = %g, want 0", m)
	}
	sk.Observe(2)
	sk.Observe(4)
	if m := r.Snapshot().Sketches["h"].Mean(); m != 3 {
		t.Errorf("mean = %g, want 3", m)
	}
	if empty.Count() != 0 {
		t.Errorf("an earlier snapshot counts %d observations made after it", empty.Count())
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
