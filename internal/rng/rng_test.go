package rng

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("generators with same seed diverged at step %d", i)
		}
	}
}

func TestSeedSensitivity(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() && c1.Uint64() == c2.Uint64() {
		t.Fatal("successive splits produced identical streams")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(5)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(9)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) out of range: %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 8000 || c > 12000 {
			t.Fatalf("Intn(10) bucket %d has %d hits, want ~10000", i, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

// TestNormFloat64Moments is the sampler's statistical oracle. Over 1e6
// draws for each of a few seeds it checks the Kolmogorov–Smirnov distance to
// the analytic CDF (D < 1.95/√n, the 0.1% critical value); the mean,
// variance, skewness and excess kurtosis, each within 5 standard errors; the
// count beyond the base-strip edge zigR, which only the tail path produces,
// within 5σ of n·erfc(zigR/√2); and the Uint64s consumed per variate, at
// most 1.05, which pins the one-Uint64-per-try mechanism.
func TestNormFloat64Moments(t *testing.T) {
	const n = 1_000_000
	for _, seed := range []uint64{11, 12, 13} {
		r := New(seed)
		shadow := *r
		xs := make([]float64, n)
		uses, tail := 0, 0
		for i := range xs {
			xs[i] = r.NormFloat64()
			if math.Abs(xs[i]) > zigR {
				tail++
			}
			// Step a copy of the generator until it catches up.
			for k := 0; shadow != *r; k++ {
				if k == 100 {
					t.Fatalf("seed %d: draw %d took over 100 Uint64s", seed, i)
				}
				shadow.Uint64()
				uses++
			}
		}

		mean, m2, m3, m4 := centralMoments(xs)
		skew, kurt := m3/math.Pow(m2, 1.5), m4/(m2*m2)-3
		for _, c := range []struct {
			name      string
			got, want float64
			se        float64
		}{
			{"mean", mean, 0, 1},
			{"variance", m2, 1, math.Sqrt2},
			{"skewness", skew, 0, math.Sqrt(6)},
			{"excess kurtosis", kurt, 0, math.Sqrt(24)},
		} {
			if se := c.se / math.Sqrt(n); math.Abs(c.got-c.want) > 5*se {
				t.Errorf("seed %d: %s = %.5f, want %v ± %.5f (5 SE)", seed, c.name, c.got, c.want, 5*se)
			}
		}

		p := math.Erfc(zigR / math.Sqrt2)
		if sd := math.Sqrt(n * p * (1 - p)); math.Abs(float64(tail)-n*p) > 5*sd {
			t.Errorf("seed %d: %d draws beyond ±%v, want %.0f ± %.0f (5σ)", seed, tail, zigR, n*p, 5*sd)
		}
		if d := ksDistance(xs, func(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }); d >= 1.95/math.Sqrt(n) {
			t.Errorf("seed %d: KS distance to the normal CDF %.5f ≥ %.5f", seed, d, 1.95/math.Sqrt(n))
		}
		if per := float64(uses) / n; per > 1.05 {
			t.Errorf("seed %d: %.4f Uint64s per NormFloat64, want ≤ 1.05", seed, per)
		}
	}
}

// centralMoments returns the mean and the second to fourth central moments
// of xs.
func centralMoments(xs []float64) (mean, m2, m3, m4 float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		d := x - mean
		m2 += d * d
		m3 += d * d * d
		m4 += d * d * d * d
	}
	n := float64(len(xs))
	return mean, m2 / n, m3 / n, m4 / n
}

// ksDistance returns the Kolmogorov–Smirnov distance between the empirical
// distribution of xs, which it sorts, and cdf.
func ksDistance(xs []float64, cdf func(float64) float64) float64 {
	sort.Float64s(xs)
	n := float64(len(xs))
	d := 0.0
	for i, x := range xs {
		f := cdf(x)
		d = math.Max(d, math.Max(f-float64(i)/n, float64(i+1)/n-f))
	}
	return d
}

// TestZigguratTables recomputes the literal layer tables from the
// Marsaglia–Tsang recurrence and requires every entry within 4 ulps (zigK
// within 4 units), so a mistyped entry or a zigR/zigV pair that does not
// close the top layer fails here rather than as a slightly wrong normal.
func TestZigguratTables(t *testing.T) {
	f := func(x float64) float64 { return math.Exp(-0.5 * x * x) }
	const scale = 1 << 53
	// x[i] is layer i's right edge; x[0] = 0 is the top of the curve.
	x := make([]float64, len(zigK))
	x[len(x)-1] = zigR
	for i := len(x) - 2; i >= 1; i-- {
		x[i] = math.Sqrt(-2 * math.Log(zigV/x[i+1]+f(x[i+1])))
	}
	if top := zigV/x[1] + f(x[1]); math.Abs(top-1) > 1e-9 {
		t.Fatalf("recurrence does not close the top layer: f(x_0) = %.12f, want 1", top)
	}
	ulps := func(a, b float64) int64 { return int64(math.Float64bits(a) - math.Float64bits(b)) }
	near := func(d int64) bool { return -4 <= d && d <= 4 }
	for i := range x {
		// Layer 0 is the base strip with its tail folded in; its inner
		// edge is zigR.
		width, inner := zigV/f(zigR), zigR
		if i > 0 {
			width, inner = x[i], x[i-1]
		}
		if k := uint64(inner / width * scale); !near(int64(zigK[i] - k)) {
			t.Errorf("zigK[%d] = %#x, recurrence gives %#x", i, zigK[i], k)
		}
		if !near(ulps(zigW[i], width/scale)) {
			t.Errorf("zigW[%d] = %v, recurrence gives %v", i, zigW[i], width/scale)
		}
		if !near(ulps(zigF[i], f(x[i]))) {
			t.Errorf("zigF[%d] = %v, recurrence gives %v", i, zigF[i], f(x[i]))
		}
	}
}

// TestExpFloat64Mean checks ExpFloat64's mean and, by the same
// Kolmogorov–Smirnov bound as the normal sampler, its distribution against
// the analytic CDF 1−e^(−x).
func TestExpFloat64Mean(t *testing.T) {
	r := New(13)
	const n = 1_000_000
	xs := make([]float64, n)
	sum := 0.0
	for i := range xs {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("ExpFloat64 returned negative value %v", v)
		}
		xs[i] = v
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-1) > 0.03 {
		t.Fatalf("exponential mean = %v, want ~1", mean)
	}
	if d := ksDistance(xs, func(x float64) float64 { return -math.Expm1(-x) }); d >= 1.95/math.Sqrt(n) {
		t.Fatalf("KS distance to the exponential CDF %.5f ≥ %.5f", d, 1.95/math.Sqrt(n))
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(17)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestChoiceDistribution(t *testing.T) {
	r := New(19)
	weights := []float64{1, 2, 3, 4}
	counts := make([]int, len(weights))
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Choice(weights)]++
	}
	for i, w := range weights {
		expected := w / 10 * n
		if math.Abs(float64(counts[i])-expected) > expected*0.1 {
			t.Fatalf("Choice bucket %d: got %d, want ~%v", i, counts[i], expected)
		}
	}
}

func TestChoicePanicsOnBadWeights(t *testing.T) {
	cases := [][]float64{
		{},
		{0, 0},
		{-1, 2},
		{math.NaN()},
	}
	for _, w := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Choice(%v) did not panic", w)
				}
			}()
			New(1).Choice(w)
		}()
	}
}

// Property: Intn(n) always lands in [0, n) for arbitrary positive n and seeds.
func TestQuickIntnBounds(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		m := int(n%1000) + 1
		r := New(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(m)
			if v < 0 || v >= m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: same seed → same stream, for arbitrary seeds.
func TestQuickDeterminism(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := New(seed), New(seed)
		for i := 0; i < 20; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkFloat64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Float64()
	}
}

// normSink keeps BenchmarkNormFloat64's draws live.
var normSink float64

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		normSink += r.NormFloat64()
	}
}
