// Package rng provides a deterministic, splittable pseudo-random number
// generator used throughout the simulator so that every experiment is exactly
// reproducible from a single seed.
//
// The generator is xoshiro256**, seeded through SplitMix64. It is not
// cryptographically secure; it is chosen for speed, statistical quality and
// the ability to derive independent child streams (Split) for per-core and
// per-workload randomness without cross-coupling.
package rng

import (
	"math"
	"math/bits"
)

// RNG is a xoshiro256** generator. The zero value is invalid; use New.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// splitMix64 advances the given state and returns the next SplitMix64 output.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed via SplitMix64, as recommended by
// the xoshiro authors to avoid correlated low-entropy states.
func New(seed uint64) *RNG {
	r := &RNG{}
	state := seed
	r.s0 = splitMix64(&state)
	r.s1 = splitMix64(&state)
	r.s2 = splitMix64(&state)
	r.s3 = splitMix64(&state)
	return r
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	var u uint64
	u, *r = r.next()
	return u
}

// next is one xoshiro256** step on a state held by value: it returns the
// output and the advanced state. Uint64 stores the state back at once;
// NormFill keeps it in a local across a whole batch, where the compiler
// can hold its four words in registers.
//
//odrl:hotpath
func (s RNG) next() (uint64, RNG) {
	result := bits.RotateLeft64(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = bits.RotateLeft64(s.s3, 45)
	return result, s
}

// Split derives an independent child generator. The child's stream is a
// deterministic function of the parent's state, and the parent is advanced so
// successive Splits yield distinct children.
func (r *RNG) Split() *RNG {
	return New(r.Uint64() ^ 0xa5a5a5a5deadbeef)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	// 53 high bits give a uniform dyadic rational in [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + w1>>32
	lo = a * b
	return
}

// NormFloat64 returns a standard normal variate by Marsaglia and Tsang's
// ziggurat over the 128 layers in ziggurat.go. Each try takes one Uint64
// (see zigTry). About 97% of tries return from the rectangle inside their
// layer; the rest go to zigEdge.
//
//odrl:hotpath
func (r *RNG) NormFloat64() float64 {
	for {
		x, i, in := zigTry(r.Uint64())
		if !in {
			x, in = r.zigEdge(x, i)
		}
		if in {
			return x
		}
	}
}

// NormFill fills dst with standard normal variates: bit for bit the values
// len(dst) successive NormFloat64 calls return, leaving the generator in
// the same state. It runs the same tries, but holds the xoshiro state in a
// local across the rectangle fast path and stores it back only around a
// zigEdge call, so a batch pays no load and store of the state per draw.
//
//odrl:hotpath
func (r *RNG) NormFill(dst []float64) {
	s := *r
	for k := 0; k < len(dst); {
		var u uint64
		u, s = s.next()
		x, i, in := zigTry(u)
		if !in {
			*r = s
			x, in = r.zigEdge(x, i)
			s = *r
		}
		if in {
			dst[k] = x
			k++
		}
	}
	*r = s
}

// zigTry maps one Uint64 to a ziggurat try: bits 0–6 pick the layer i, bit
// 7 is the sign and bits 11–63 are the abscissa, so no bit does two jobs
// (Doornik 2005 shows the correlation that reusing the abscissa's low bits
// as the index causes). in reports that the signed abscissa x lies inside
// the layer's rectangle, where the whole layer is under the curve.
//
//odrl:hotpath
func zigTry(u uint64) (x float64, i uint64, in bool) {
	i = u & 0x7f
	m := u >> 11
	x = float64(int64(m)) * zigW[i]
	// Bit 7 becomes x's sign bit, without a branch.
	x = math.Float64frombits(math.Float64bits(x) | (u&0x80)<<56)
	return x, i, m < zigK[i]
}

// zigEdge finishes a try that missed its layer's rectangle, the one slow
// path of NormFloat64 and NormFill. A wedge try (i > 0) takes one more
// uniform and a math.Exp, and the bool reports acceptance; a rejected try
// starts over. A base-strip try (i == 0) lies beyond zigR and is always
// accepted, with a variate from the tail by Marsaglia's exponential method
// and x's sign.
//
//odrl:hotpath
func (r *RNG) zigEdge(x float64, i uint64) (float64, bool) {
	if i == 0 {
		for {
			t := r.ExpFloat64() / zigR
			if 2*r.ExpFloat64() >= t*t {
				return math.Copysign(zigR+t, x), true
			}
		}
	}
	return x, zigF[i]+r.Float64()*(zigF[i-1]-zigF[i]) < math.Exp(-0.5*x*x)
}

// ExpFloat64 returns an exponential variate with mean 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Choice returns a random index in [0, len(weights)) with probability
// proportional to weights[i]. Weights must be non-negative with a positive
// sum; otherwise Choice panics.
func (r *RNG) Choice(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("rng: negative or NaN weight")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: non-positive weight sum")
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
