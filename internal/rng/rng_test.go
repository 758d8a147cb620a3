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

// normFillMatches fills n variates with NormFill from a copy of r, then
// draws the same n from r itself one NormFloat64 at a time. It reports the
// first index where the two differ in any bit (-1 if none), whether the
// generators end in the same state, and how many single draws sent their
// first try to the wedge and to the tail path.
func normFillMatches(r *RNG, n int) (diff int, sameState bool, wedge, tail int) {
	batch := *r
	got := make([]float64, n)
	batch.NormFill(got)
	diff = -1
	for k := range got {
		first := *r
		if _, i, in := zigTry(first.Uint64()); !in && i == 0 {
			tail++
		} else if !in {
			wedge++
		}
		if want := r.NormFloat64(); diff < 0 && math.Float64bits(got[k]) != math.Float64bits(want) {
			diff = k
		}
	}
	return diff, batch == *r, wedge, tail
}

// TestNormFillMatchesNormFloat64 is NormFill's oracle: over streams from
// fresh and part-drawn generators, of lengths from 0 to past a 1024-core
// epoch's 3072 variates, the batch must return the successive NormFloat64
// values bit for bit and leave the generator where they leave it. The
// streams must exercise the wedge and the tail, the two ways a batch try
// leaves its register-held state.
func TestNormFillMatchesNormFloat64(t *testing.T) {
	wedges, tails := 0, 0
	for _, seed := range []uint64{1, 2, 3, 4} {
		r := New(seed)
		for _, n := range []int{0, 1, 2, 3, 7, 64, 1000, 3072, 20000} {
			diff, same, wedge, tail := normFillMatches(r, n)
			if diff >= 0 {
				t.Fatalf("seed %d, length %d: variate %d differs from NormFloat64", seed, n, diff)
			}
			if !same {
				t.Fatalf("seed %d, length %d: NormFill left the generator in another state", seed, n)
			}
			wedges += wedge
			tails += tail
		}
	}
	if wedges == 0 || tails == 0 {
		t.Fatalf("streams took %d wedge and %d tail tries, want both > 0", wedges, tails)
	}
}

// FuzzNormFillMatches runs the NormFill oracle on arbitrary seeds and
// batch lengths.
func FuzzNormFillMatches(f *testing.F) {
	f.Add(uint64(1), uint16(3072))
	f.Add(uint64(7), uint16(0))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16) {
		if diff, same, _, _ := normFillMatches(New(seed), int(n)); diff >= 0 || !same {
			t.Fatalf("seed %d, length %d: first differing variate %d, same end state %v", seed, n, diff, same)
		}
	})
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

// TestZigguratTables checks the literal layer tables against identities
// that tie each entry to its neighbours, so a mistyped entry, or a
// zigR/zigV pair that does not close the top layer, fails here rather than
// as a slightly wrong normal. Layer i ≥ 1 reaches out to x_i =
// zigW[i]·2^53, exactly, since the widths were divided by 2^53. Each
// identity rounds a few operations on literals rather than replaying the
// 127-layer recurrence, so its error does not compound and its bound holds
// on every floating-point path: amd64's math.Exp and math.Log pick FMA or
// plain code by host, and recomputing the whole recurrence on the plain
// path put entries up to 137 ulps from the literals, which came from the
// FMA path.
func TestZigguratTables(t *testing.T) {
	f := func(x float64) float64 { return math.Exp(-0.5 * x * x) }
	const scale = 1 << 53
	edge := func(i int) float64 { return zigW[i] * scale }
	near := func(got, want float64, ulps int64) bool {
		d := int64(math.Float64bits(got) - math.Float64bits(want))
		return -ulps <= d && d <= ulps
	}
	if edge(127) != zigR {
		t.Errorf("zigW[127]·2^53 = %v, want the base-strip edge zigR = %v", edge(127), zigR)
	}
	// Layer 0 is the base strip with its tail folded in: a rectangle of
	// width zigV/f(zigR) whose inner edge is zigR.
	if w := zigV / f(zigR); !near(edge(0), w, 2) {
		t.Errorf("zigW[0] = %v, want zigV/f(zigR)/2^53 = %v", zigW[0], w/scale)
	}
	if k := uint64(zigR / edge(0) * scale); zigK[0] != k {
		t.Errorf("zigK[0] = %#x, want zigR over layer 0's width, %#x", zigK[0], k)
	}
	// x_0 = 0 closes the top: f(x_0) = 1, and the top layer has no
	// rectangle inside its curve.
	if zigF[0] != 1 || zigK[1] != 0 {
		t.Errorf("zigF[0] = %v and zigK[1] = %#x, want 1 and 0", zigF[0], zigK[1])
	}
	if top := zigV/edge(1) + zigF[1]; math.Abs(top-1) > 1e-9 {
		t.Errorf("zigR and zigV do not close the top layer: f(x_0) = %.12f, want 1", top)
	}
	for i := 1; i < len(zigK); i++ {
		// zigF[i] = f(x_i): one Exp, so the paths differ by at most an ulp.
		if !near(zigF[i], f(edge(i)), 1) {
			t.Errorf("zigF[%d] = %v, want f(x_%d) = %v", i, zigF[i], i, f(edge(i)))
		}
		if i == 1 {
			continue
		}
		// zigK[i] is the inner edge x_{i-1} over the width x_i, scaled:
		// exact arithmetic on literals, on any host.
		if k := uint64(edge(i-1) / edge(i) * scale); zigK[i] != k {
			t.Errorf("zigK[%d] = %#x, want x_%d/x_%d·2^53 = %#x", i, zigK[i], i-1, i, k)
		}
		// Layer i has area zigV: f(x_{i-1}) = zigV/x_i + f(x_i). The table
		// stored f(x_{i-1}) after a round trip through Log, Sqrt and Exp,
		// which loses about x_{i-1}² ulps.
		x := edge(i - 1)
		if want := zigV/edge(i) + zigF[i]; !near(zigF[i-1], want, 2+int64(2*x*x)) {
			t.Errorf("layer %d's area is not zigV: zigF[%d] = %v, zigV/x_%d + zigF[%d] = %v", i, i-1, zigF[i-1], i, i, want)
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

// BenchmarkNormFill draws a 1024-core epoch's 3072 sensor variates per
// iteration, as the chip step does; ns/op over 3072 is the per-variate
// cost to compare with BenchmarkNormFloat64.
func BenchmarkNormFill(b *testing.B) {
	r := New(1)
	buf := make([]float64, 3072)
	for i := 0; i < b.N; i++ {
		r.NormFill(buf)
	}
	normSink += buf[0]
}
